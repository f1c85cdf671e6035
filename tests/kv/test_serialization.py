"""Tests for the canonical value codec."""

import collections
import enum
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KVError
from repro.kv.serialization import (
    MAX_DECODE_DEPTH,
    canonical_value,
    decode_value,
    encode_value,
    json_safe,
    json_safe_key,
)
from tests.oracles.encoder import encode_value as ladder_encode_value
from tests.oracles.structure import exact

# Strategy for the supported value universe.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.text(max_size=30),
    st.binary(max_size=30),
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
    ),
    max_leaves=20,
)


class TestCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            1,
            -1,
            2**70,
            -(2**70),
            "",
            "hello",
            "ünïcödé",
            b"",
            b"\x00\xff",
            [],
            [1, "two", b"three", None],
            {},
            {"k": "v", "nested": {"a": [1, 2]}},
        ],
    )
    def test_roundtrip_examples(self, value):
        decoded = decode_value(encode_value(value))
        assert decoded == value

    def test_tuple_encodes_as_list(self):
        assert decode_value(encode_value((1, 2))) == [1, 2]

    def test_canonical_dict_ordering(self):
        """Key order must not affect the encoding (ledger determinism)."""
        a = encode_value({"x": 1, "y": 2, "z": 3})
        b = encode_value({"z": 3, "x": 1, "y": 2})
        assert a == b

    def test_distinct_values_distinct_encodings(self):
        assert encode_value("1") != encode_value(1)
        assert encode_value(b"1") != encode_value("1")
        assert encode_value(True) != encode_value(1)
        assert encode_value(None) != encode_value(False)
        assert encode_value(0) != encode_value(-1)

    def test_unsupported_type_rejected(self):
        with pytest.raises(KVError):
            encode_value(3.14)
        with pytest.raises(KVError):
            encode_value({1, 2})
        with pytest.raises(KVError):
            encode_value(object())

    def test_truncated_input_rejected(self):
        encoded = encode_value({"key": "value"})
        with pytest.raises(KVError):
            decode_value(encoded[:-3])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(KVError):
            decode_value(encode_value(1) + b"\x00")

    def test_unknown_tag_rejected(self):
        with pytest.raises(KVError):
            decode_value(b"\x7f")

    def test_empty_input_rejected(self):
        with pytest.raises(KVError):
            decode_value(b"")

    @settings(max_examples=200, deadline=None)
    @given(_values)
    def test_property_roundtrip(self, value):
        assert decode_value(encode_value(value)) == value

    @settings(max_examples=100, deadline=None)
    @given(_values, _values)
    def test_property_injective(self, a, b):
        """Different values never share an encoding."""
        if a != b:
            assert encode_value(a) != encode_value(b)


# The encoding is a wire/disk format: its exact bytes are load-bearing
# (Merkle roots sign them). Pin representative vectors byte-for-byte so an
# accidental format change fails loudly instead of splitting the ledger.
_GOLDEN_VECTORS = [
    (None, "00"),
    (True, "02"),
    (False, "01"),
    (0, "030000000100"),
    (1, "030000000101"),
    (-1, "040000000100"),
    (255, "0300000001ff"),
    (256, "03000000020100"),
    (-256, "0400000001ff"),
    (2**70, "0300000009400000000000000000"),
    (-(2**70), "04000000093fffffffffffffffff"),
    ("", "0500000000"),
    ("hello", "050000000568656c6c6f"),
    ("héllo ✓", "050000000a68c3a96c6c6f20e29c93"),
    ("1", "050000000131"),
    (b"", "0600000000"),
    (b"\x00\x01\xff", "06000000030001ff"),
    ([], "0700000000"),
    ([1, "two", b"\x03", None], "0700000004030000000101050000000374776f06000000010300"),
    (
        [[1, 2], [3, [4]]],
        "070000000207000000020300000001010300000001020700000002"
        "0300000001030700000001030000000104",
    ),
    ({}, "0800000000"),
    (
        {"a": 1, "b": [2, 3]},
        "08000000020500000001610300000001010500000001620700000002"
        "030000000102030000000103",
    ),
    (
        {1: "int", "1": "str"},
        "08000000020300000001010500000003696e740500000001310500000003737472",
    ),
    (
        {b"\x00": None, "": {"nested": {"deep": [True, False]}}},
        "08000000020500000000080000000105000000066e6573746564"
        "08000000010500000004646565700700000002020106000000010000",
    ),
    (
        {(1, 2): "tuple-key"},
        "0800000001070000000203000000010103000000010205000000097475706c652d6b6579",
    ),
    (
        {"z": 1, "a": 2, "m": 3},
        "080000000305000000016103000000010205000000016d0300000001"
        "0305000000017a030000000101",
    ),
]


class TestGoldenVectors:
    @pytest.mark.parametrize("value,expected_hex", _GOLDEN_VECTORS)
    def test_encoding_pinned(self, value, expected_hex):
        assert encode_value(value).hex() == expected_hex

    @pytest.mark.parametrize("value,expected_hex", _GOLDEN_VECTORS)
    def test_golden_bytes_decode_back(self, value, expected_hex):
        decoded = decode_value(bytes.fromhex(expected_hex))
        if isinstance(value, dict) and any(
            isinstance(k, tuple) for k in value
        ):
            # Tuple keys decode as tuples (frozen lists); values compare equal.
            assert {k: v for k, v in decoded.items()} == value
        elif isinstance(value, (list, tuple)):
            assert decoded == list(value) or decoded == [list(v) for v in value]
        else:
            assert decoded == value


class _Colour(enum.IntEnum):
    RED = 1
    DEEP = -(2**40)


class _Name(str):
    pass


class _Blob(bytes):
    pass


_Pair = collections.namedtuple("_Pair", "left right")


def _random_value(rng: random.Random, depth: int = 0):
    """A value from the supported universe, including what the dispatch
    table misses by exact type: subclasses of every base type."""
    scalars = [
        lambda: None,
        lambda: rng.random() < 0.5,
        lambda: rng.randrange(-(2**70), 2**70),
        lambda: rng.randrange(-3, 300),
        lambda: "".join(rng.choice("aé\x00z9") for _ in range(rng.randrange(40))),
        lambda: rng.randbytes(rng.randrange(300)),
        lambda: bytearray(rng.randbytes(rng.randrange(8))),
        lambda: rng.choice(list(_Colour)),
        lambda: _Name("n%d" % rng.randrange(100)),
        lambda: _Blob(rng.randbytes(3)),
    ]
    if depth >= 4 or rng.random() < 0.45:
        return rng.choice(scalars)()
    size = rng.randrange(6)
    kind = rng.randrange(6)
    if kind == 0:
        return [_random_value(rng, depth + 1) for _ in range(size)]
    if kind == 1:
        return tuple(_random_value(rng, depth + 1) for _ in range(size))
    if kind == 2:
        return _Pair(_random_value(rng, depth + 1), _random_value(rng, depth + 1))
    keys = [
        lambda: "k%d" % rng.randrange(50),
        lambda: rng.randrange(-5, 500),
        lambda: rng.randbytes(2),
        lambda: (rng.randrange(3), "t%d" % rng.randrange(3)),
        lambda: rng.choice(list(_Colour)),
        lambda: _Name("n%d" % rng.randrange(9)),
        lambda: rng.random() < 0.5,
        lambda: None,
    ]
    pairs = [(rng.choice(keys)(), _random_value(rng, depth + 1)) for _ in range(size)]
    if kind == 3:
        return collections.OrderedDict(pairs)
    return dict(pairs)


class TestEncoderAgainstLadderOracle:
    """The type-dispatched production encoder must produce the bytes of the
    ``isinstance`` ladder it replaced (``tests/oracles/encoder.py``)."""

    @pytest.mark.parametrize("value,expected_hex", _GOLDEN_VECTORS)
    def test_oracle_reproduces_golden_vectors(self, value, expected_hex):
        assert ladder_encode_value(value).hex() == expected_hex

    @pytest.mark.parametrize("seed", range(300))
    def test_randomized_nested_values(self, seed):
        value = _random_value(random.Random(seed))
        assert encode_value(value) == ladder_encode_value(value)

    @pytest.mark.parametrize("length", [255, 256, 257, 4095, 4096, 4097, 70_000])
    def test_lengths_around_the_shared_prefixes(self, length):
        """Short lengths reuse prefix objects; the boundary and anything
        beyond must encode the same way."""
        for value in (
            "x" * length,
            b"y" * length,
            bytearray(length),
            list(range(length)),
            tuple([None] * length),
            {index: index for index in range(length)},
            2 ** (8 * length) - 1 if length < 5000 else 1,
        ):
            assert encode_value(value) == ladder_encode_value(value)

    def test_subclasses_encode_as_their_base_type(self):
        assert encode_value(_Colour.RED) == encode_value(1)
        assert encode_value(_Colour.DEEP) == encode_value(-(2**40))
        assert encode_value(_Name("n")) == encode_value("n")
        assert encode_value(_Blob(b"b")) == encode_value(b"b")
        assert encode_value(_Pair(1, 2)) == encode_value([1, 2])
        assert encode_value(collections.OrderedDict(b=1, a=2)) == encode_value(
            {"a": 2, "b": 1}
        )

    @pytest.mark.parametrize("value", [3.14, {1, 2}, object(), [1, {"k": 2.5}], {2.5: 1}])
    def test_both_reject_the_same_values(self, value):
        with pytest.raises(KVError) as production:
            encode_value(value)
        with pytest.raises(KVError) as oracle:
            ladder_encode_value(value)
        assert str(production.value) == str(oracle.value)


class TestCanonicalValue:
    """``canonical_value`` is the codec round trip without the bytes —
    exact types and dict order included, not just ``==``."""

    @pytest.mark.parametrize("seed", range(300))
    def test_equals_the_round_trip_exactly(self, seed):
        value = _random_value(random.Random(1000 + seed))
        assert exact(canonical_value(value)) == exact(decode_value(encode_value(value)))

    def test_named_cases(self):
        assert exact(canonical_value((1, (2, bytearray(b"x"))))) == exact([1, [2, b"x"]])
        assert exact(canonical_value({(1, (2, 3)): (4,)})) == exact({(1, (2, 3)): [4]})
        assert list(canonical_value({"zz": 1, "b": 2, "aaa": 3})) == ["b", "zz", "aaa"]
        assert exact(canonical_value(_Colour.RED)) == exact(1)

    @pytest.mark.parametrize("value", [3.14, [1, {2}], {"k": object()}])
    def test_rejects_what_the_encoder_rejects(self, value):
        with pytest.raises(KVError):
            canonical_value(value)


class TestDecodeDepthLimit:
    def _nested_list(self, depth):
        value = 42
        for _ in range(depth):
            value = [value]
        return value

    def test_depth_just_below_limit_accepted(self):
        value = self._nested_list(MAX_DECODE_DEPTH - 1)
        assert decode_value(encode_value(value)) == value

    def test_over_depth_raises_typed_error(self):
        # Build the hostile blob by hand — the encoder itself would recurse.
        depth = MAX_DECODE_DEPTH + 10
        blob = b"\x07\x00\x00\x00\x01" * depth + b"\x00"
        with pytest.raises(KVError, match="nests deeper"):
            decode_value(blob)

    def test_over_depth_is_not_recursion_error(self):
        blob = b"\x07\x00\x00\x00\x01" * 5000 + b"\x00"
        try:
            decode_value(blob)
        except KVError:
            pass  # typed failure, never RecursionError

    def test_deep_dicts_also_bounded(self):
        # {"k": {"k": ... }} nested past the limit.
        blob = (b"\x08\x00\x00\x00\x01" + b"\x05\x00\x00\x00\x01k") * (
            MAX_DECODE_DEPTH + 10
        ) + b"\x00"
        with pytest.raises(KVError, match="nests deeper"):
            decode_value(blob)


class TestJsonSafe:
    def test_bytes_become_tagged_hex(self):
        assert json_safe(b"\x01\x02") == {"__bytes__": "0102"}

    def test_nested_structures(self):
        value = {"list": [b"\xff", {"inner": b"\x00"}], "n": 1}
        import json

        json.dumps(json_safe(value))  # must be JSON-serializable


class TestJsonSafeKeys:
    def test_int_and_str_keys_stay_distinct(self):
        """The historical bug: str(1) == str("1") merged two live rows."""
        rendered = json_safe({1: "int", "1": "str"})
        assert rendered == {"__int__:1": "int", "1": "str"}
        assert len(rendered) == 2

    def test_all_key_types_tagged(self):
        assert json_safe_key(None) == "__none__:"
        assert json_safe_key(True) == "__bool__:true"
        assert json_safe_key(False) == "__bool__:false"
        assert json_safe_key(-7) == "__int__:-7"
        assert json_safe_key(b"\x01\xff") == "__bytes__:01ff"
        assert json_safe_key((1, "a")) == (
            "__tuple__:" + encode_value([1, "a"]).hex()
        )

    def test_plain_strings_pass_through(self):
        assert json_safe_key("hello") == "hello"
        assert json_safe_key("") == ""
        assert json_safe_key("__almost") == "__almost"

    def test_tag_shaped_strings_escaped(self):
        """A user string that happens to look like a tag must not collide
        with the tagged rendering of another key."""
        assert json_safe_key("__int__:1") == "__str__:__int__:1"
        assert json_safe_key(1) != json_safe_key("__int__:1")
        assert json_safe_key("__str__:x") == "__str__:__str__:x"

    def test_mapping_is_injective_over_mixed_keys(self):
        keys = [None, True, False, 0, 1, -1, "", "1", "true", b"", b"\x00",
                (0,), "__int__:0", "__none__:"]
        rendered = [json_safe_key(k) for k in keys]
        assert len(set(rendered)) == len(keys)

    def test_bytes_values_keep_dict_form(self):
        """Only *keys* use the flat tagged form; byte values keep the
        established ``{"__bytes__": hex}`` object shape."""
        assert json_safe({b"k": b"v"}) == {"__bytes__:6b": {"__bytes__": "76"}}

    def test_unhashable_key_type_rejected(self):
        with pytest.raises(KVError):
            json_safe_key(3.14)
