"""Tests for the from-scratch P-256 / ECDSA implementation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ec
from repro.crypto.ecdsa import SigningKey, VerifyingKey
from repro.errors import CryptoError, VerificationError
from tests.oracles import ec as reference_ec


class TestCurveArithmetic:
    def test_generator_is_on_curve(self):
        assert ec.is_on_curve(ec.GENERATOR)

    def test_generator_has_order_n(self):
        assert reference_ec.scalar_mult(ec.N, ec.GENERATOR).is_infinity

    def test_scalar_mult_known_vector(self):
        # 2G for P-256 (public test vector).
        doubled = reference_ec.scalar_mult(2, ec.GENERATOR)
        assert doubled.x == 0x7CF27B188D034F7E8A52380304B51AC3C08969E277F21B35A60B48FC47669978
        assert doubled.y == 0x07775510DB8ED040293D9AC69F7430DBBA7DADE63CE982299E04B79D227873D1

    def test_point_addition_commutative(self):
        p = reference_ec.scalar_mult(12345, ec.GENERATOR)
        q = reference_ec.scalar_mult(67890, ec.GENERATOR)
        assert reference_ec.point_add(p, q) == reference_ec.point_add(q, p)

    def test_addition_matches_scalar_mult(self):
        p = reference_ec.scalar_mult(111, ec.GENERATOR)
        q = reference_ec.scalar_mult(222, ec.GENERATOR)
        assert reference_ec.point_add(p, q) == reference_ec.scalar_mult(333, ec.GENERATOR)

    def test_add_inverse_gives_infinity(self):
        p = reference_ec.scalar_mult(7, ec.GENERATOR)
        assert p.y is not None
        neg = ec.Point(p.x, ec.P - p.y)
        assert reference_ec.point_add(p, neg).is_infinity

    def test_infinity_is_identity(self):
        p = reference_ec.scalar_mult(99, ec.GENERATOR)
        assert reference_ec.point_add(p, ec.INFINITY) == p
        assert reference_ec.point_add(ec.INFINITY, p) == p

    def test_zero_scalar_gives_infinity(self):
        assert reference_ec.scalar_mult(0, ec.GENERATOR).is_infinity

    def test_point_encode_decode_roundtrip(self):
        for k in (1, 2, 3, 1000, ec.N - 1):
            p = reference_ec.scalar_mult(k, ec.GENERATOR)
            assert ec.decode_point(p.encode()) == p

    def test_decode_rejects_off_curve_x(self):
        # x = 5 has no square root for y on P-256 with prefix forcing.
        bad = b"\x02" + (2).to_bytes(32, "big")
        with pytest.raises(CryptoError):
            ec.decode_point(bad)

    def test_decode_rejects_malformed(self):
        with pytest.raises(CryptoError):
            ec.decode_point(b"\x04" + b"\x00" * 32)
        with pytest.raises(CryptoError):
            ec.decode_point(b"\x02" + b"\x00" * 10)


class TestECDSA:
    def test_sign_verify_roundtrip(self):
        key = SigningKey.generate(b"node0")
        message = b"merkle root commitment"
        key.public_key.verify(key.sign(message), message)

    def test_signature_is_deterministic(self):
        key = SigningKey.generate(b"node0")
        assert key.sign(b"msg") == key.sign(b"msg")

    def test_different_messages_different_signatures(self):
        key = SigningKey.generate(b"node0")
        assert key.sign(b"a") != key.sign(b"b")

    def test_verify_rejects_wrong_message(self):
        key = SigningKey.generate(b"node0")
        signature = key.sign(b"original")
        with pytest.raises(VerificationError):
            key.public_key.verify(signature, b"tampered")

    def test_verify_rejects_wrong_key(self):
        signature = SigningKey.generate(b"a").sign(b"msg")
        with pytest.raises(VerificationError):
            SigningKey.generate(b"b").public_key.verify(signature, b"msg")

    def test_verify_rejects_bitflipped_signature(self):
        key = SigningKey.generate(b"node0")
        signature = bytearray(key.sign(b"msg"))
        signature[10] ^= 0x01
        with pytest.raises(VerificationError):
            key.public_key.verify(bytes(signature), b"msg")

    def test_verify_rejects_malformed_length(self):
        key = SigningKey.generate(b"node0")
        with pytest.raises(VerificationError):
            key.public_key.verify(b"short", b"msg")

    def test_verify_rejects_zero_scalars(self):
        key = SigningKey.generate(b"node0")
        with pytest.raises(VerificationError):
            key.public_key.verify(b"\x00" * 64, b"msg")

    def test_is_valid_boolean_wrapper(self):
        key = SigningKey.generate(b"node0")
        signature = key.sign(b"msg")
        assert key.public_key.is_valid(signature, b"msg")
        assert not key.public_key.is_valid(signature, b"other")

    def test_public_key_encode_decode_roundtrip(self):
        public = SigningKey.generate(b"x").public_key
        assert VerifyingKey.decode(public.encode()).point == public.point

    def test_keygen_is_deterministic_per_seed(self):
        assert SigningKey.generate(b"s").scalar == SigningKey.generate(b"s").scalar
        assert SigningKey.generate(b"s").scalar != SigningKey.generate(b"t").scalar

    @settings(max_examples=10, deadline=None)
    @given(st.binary(min_size=0, max_size=200), st.binary(min_size=1, max_size=16))
    def test_property_sign_verify(self, message, seed):
        key = SigningKey.generate(seed)
        key.public_key.verify(key.sign(message), message)
