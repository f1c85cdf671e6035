"""Tests for ChaCha20, Poly1305, both AEAD suites, X25519, HKDF, ECIES."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aead import AEADKey, nonce_from_counter
from repro.crypto.chacha20 import chacha20_block, chacha20_xor
from repro.crypto.ecies import EncryptionKeyPair, encrypt
from repro.crypto.fastaead import DEFAULT_SUITE, FastAEADKey, make_key
from repro.crypto.hashing import sha256
from repro.crypto.hkdf import hkdf
from repro.crypto.poly1305 import poly1305_mac
from repro.crypto.x25519 import DHPrivateKey, x25519
from repro.errors import CryptoError, VerificationError
from repro.ledger.secrets import LedgerSecret
from tests.oracles import fastaead as reference_aead


class TestChaCha20:
    def test_rfc8439_block_vector(self):
        # RFC 8439 section 2.3.2 test vector.
        key = bytes(range(32))
        nonce = bytes.fromhex("000000090000004a00000000")
        block = chacha20_block(key, 1, nonce)
        assert block.hex().startswith("10f1e7e4d13b5915500fdd1fa32071c4")

    def test_rfc8439_encryption_vector(self):
        # RFC 8439 section 2.4.2.
        key = bytes(range(32))
        nonce = bytes.fromhex("000000000000004a00000000")
        plaintext = (
            b"Ladies and Gentlemen of the class of '99: If I could offer you "
            b"only one tip for the future, sunscreen would be it."
        )
        ciphertext = chacha20_xor(key, nonce, plaintext, initial_counter=1)
        assert ciphertext.hex().startswith("6e2e359a2568f98041ba0728dd0d6981")

    def test_xor_is_involution(self):
        key = b"\x07" * 32
        nonce = b"\x01" * 12
        data = b"some ledger entry payload"
        assert chacha20_xor(key, nonce, chacha20_xor(key, nonce, data)) == data


class TestPoly1305:
    def test_rfc8439_mac_vector(self):
        # RFC 8439 section 2.5.2.
        key = bytes.fromhex(
            "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b"
        )
        tag = poly1305_mac(key, b"Cryptographic Forum Research Group")
        assert tag == bytes.fromhex("a8061dc1305136c6c22b8baf0c0127a9")


@pytest.mark.parametrize("key_cls", [AEADKey, FastAEADKey], ids=["chacha", "fast"])
class TestAEADSuites:
    def test_seal_open_roundtrip(self, key_cls):
        key = key_cls.generate(b"ledger-secret")
        nonce = nonce_from_counter(42)
        sealed = key.seal(nonce, b"private map update", b"txid:2.42")
        assert key.open(nonce, sealed, b"txid:2.42") == b"private map update"

    def test_open_rejects_tampered_ciphertext(self, key_cls):
        key = key_cls.generate(b"k")
        nonce = nonce_from_counter(1)
        sealed = bytearray(key.seal(nonce, b"payload"))
        sealed[0] ^= 0xFF
        with pytest.raises(VerificationError):
            key.open(nonce, bytes(sealed))

    def test_open_rejects_tampered_tag(self, key_cls):
        key = key_cls.generate(b"k")
        nonce = nonce_from_counter(1)
        sealed = bytearray(key.seal(nonce, b"payload"))
        sealed[-1] ^= 0x01
        with pytest.raises(VerificationError):
            key.open(nonce, bytes(sealed))

    def test_open_rejects_wrong_aad(self, key_cls):
        key = key_cls.generate(b"k")
        nonce = nonce_from_counter(1)
        sealed = key.seal(nonce, b"payload", b"context-a")
        with pytest.raises(VerificationError):
            key.open(nonce, sealed, b"context-b")

    def test_open_rejects_wrong_nonce(self, key_cls):
        key = key_cls.generate(b"k")
        sealed = key.seal(nonce_from_counter(1), b"payload")
        with pytest.raises(VerificationError):
            key.open(nonce_from_counter(2), sealed)

    def test_open_rejects_wrong_key(self, key_cls):
        nonce = nonce_from_counter(1)
        sealed = key_cls.generate(b"k1").seal(nonce, b"payload")
        with pytest.raises(VerificationError):
            key_cls.generate(b"k2").open(nonce, sealed)

    def test_open_rejects_truncated_box(self, key_cls):
        key = key_cls.generate(b"k")
        with pytest.raises(VerificationError):
            key.open(nonce_from_counter(0), b"abc")

    def test_empty_plaintext(self, key_cls):
        key = key_cls.generate(b"k")
        nonce = nonce_from_counter(9)
        assert key.open(nonce, key.seal(nonce, b"")) == b""

    def test_rejects_bad_key_size(self, key_cls):
        with pytest.raises(CryptoError):
            key_cls(b"short")

    def test_rejects_bad_nonce_size(self, key_cls):
        key = key_cls.generate(b"k")
        with pytest.raises(CryptoError):
            key.seal(b"short", b"data")

    @settings(max_examples=25, deadline=None)
    @given(st.binary(max_size=300), st.binary(max_size=50), st.integers(0, 2**40))
    def test_property_roundtrip(self, key_cls, plaintext, aad, counter):
        key = key_cls.generate(b"prop")
        nonce = nonce_from_counter(counter)
        assert key.open(nonce, key.seal(nonce, plaintext, aad), aad) == plaintext


class TestFastAEADAgainstReference:
    """``FastAEADKey`` forks a hashed prefix per keystream block and a
    keyed HMAC per tag; its output must stay the straight-line
    construction's (``tests/oracles/fastaead.py``), byte for byte."""

    KEY = FastAEADKey.generate(b"reference")

    # 0-100 covers the partial first blocks; 8,192 bytes is the last
    # length served by the precomputed block counters.
    LENGTHS = [*range(101), 1_000, 7_000, 8_191, 8_192, 8_193, 8_225, 20_000]

    @pytest.mark.parametrize("length", LENGTHS)
    def test_seal_matches_and_open_inverts(self, length):
        rng = random.Random(length)
        plaintext = rng.randbytes(length)
        aad = rng.randbytes(length % 37)
        nonce = nonce_from_counter(length + 1, domain=0x4C)
        sealed = self.KEY.seal(nonce, plaintext, aad)
        assert sealed == reference_aead.seal(self.KEY.key, nonce, plaintext, aad)
        assert self.KEY.open(nonce, sealed, aad) == plaintext

    def test_one_key_object_many_messages(self):
        """The keyed MAC state is cached on the key object: reusing the
        object must not leak one message's state into the next tag."""
        for counter in range(1, 30):
            nonce = nonce_from_counter(counter)
            plaintext, aad = b"p" * counter, b"a" * (30 - counter)
            assert self.KEY.seal(nonce, plaintext, aad) == reference_aead.seal(
                self.KEY.key, nonce, plaintext, aad
            )

    def test_ledger_secret_seals_what_a_fresh_key_seals(self):
        """``LedgerSecret`` holds one key object for all its operations."""
        secret = LedgerSecret.generate(b"seed", generation=3)
        fresh = make_key(secret.suite, secret.key_bytes)
        for seqno in (1, 2, 500):
            sealed = secret.seal(seqno, b"private-%d" % seqno, b"aad")
            assert sealed == fresh.seal(
                nonce_from_counter(seqno, 0x4C), b"private-%d" % seqno, b"aad"
            )
            assert secret.open(seqno, sealed, b"aad") == b"private-%d" % seqno
        digest = bytes(range(32))
        assert secret.open_chunk(digest, secret.seal_chunk(digest, b"chunk", b"a"), b"a") == b"chunk"


class TestFastAEADKnownAnswers:
    """Boxes recorded before the hashed key was cached per key object: the
    cache must leave every byte where it was. Lengths straddle the first
    block boundary and pass the 256-entry precomputed counter table."""

    KEY = FastAEADKey(bytes(range(32)))
    NONCE = bytes(range(100, 112))
    AAD = b"known-answer aad"
    BOXES = {
        0: "fdf7be0891e85ad8b3837e7ca0de1089",
        1: "493fdde3f4b0d677584c7a3a03d39f9f2a",
        31: "49ac75591f1270e31027a5b36b780abfe09ebca69f9975d2916165518f04fa"
        "affbee11df7ec47238ea06196086ef26",
        32: "49ac75591f1270e31027a5b36b780abfe09ebca69f9975d2916165518f04fa"
        "cd66c37bfb94988d2825fbc640ee9e958f",
        33: "49ac75591f1270e31027a5b36b780abfe09ebca69f9975d2916165518f04fa"
        "cda5d7130f4f67b45a314f41693100631a5b",
    }
    # The 8,209-byte box for 8,193 bytes of plaintext, by its SHA-256.
    LONG_BOX_SHA256 = "5faf11f4a389711946053223e8dc990d9199d29cc4336011f16aa3639c83bd11"

    @staticmethod
    def _plaintext(length):
        return bytes(i % 251 for i in range(length))

    @pytest.mark.parametrize("length", sorted(BOXES))
    def test_short_boxes(self, length):
        box = self.KEY.seal(self.NONCE, self._plaintext(length), self.AAD)
        assert box.hex() == self.BOXES[length]
        assert self.KEY.open(self.NONCE, box, self.AAD) == self._plaintext(length)

    def test_box_past_the_counter_table(self):
        box = self.KEY.seal(self.NONCE, self._plaintext(8_193), self.AAD)
        assert len(box) == 8_193 + 16
        assert bytes(sha256(box)).hex() == self.LONG_BOX_SHA256

    def test_interleaved_keys_share_no_cached_state(self):
        one = FastAEADKey(bytes(range(32)))
        two = FastAEADKey(bytes(range(1, 33)))
        for counter in range(8):
            nonce = nonce_from_counter(counter)
            plaintext = b"m" * (counter * 17)
            for key in (one, two, one):
                assert key.seal(nonce, plaintext, b"a") == reference_aead.seal(
                    key.key, nonce, plaintext, b"a"
                )
        assert one.seal(self.NONCE, b"x" * 40) != two.seal(self.NONCE, b"x" * 40)


class TestNonce:
    def test_nonces_are_unique_per_counter(self):
        assert nonce_from_counter(1) != nonce_from_counter(2)
        assert nonce_from_counter(1, domain=0) != nonce_from_counter(1, domain=1)

    def test_rejects_out_of_range(self):
        with pytest.raises(CryptoError):
            nonce_from_counter(-1)
        with pytest.raises(CryptoError):
            nonce_from_counter(1 << 90)


class TestSuiteRegistry:
    def test_default_suite_resolves(self):
        key = make_key(DEFAULT_SUITE, b"\x01" * 32)
        nonce = nonce_from_counter(3)
        assert key.open(nonce, key.seal(nonce, b"x")) == b"x"

    def test_unknown_suite_rejected(self):
        with pytest.raises(CryptoError):
            make_key("rot13", b"\x01" * 32)


class TestX25519:
    def test_rfc7748_vector(self):
        scalar = bytes.fromhex(
            "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4"
        )
        point = bytes.fromhex(
            "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c"
        )
        expected = bytes.fromhex(
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
        )
        assert x25519(scalar, point) == expected

    def test_diffie_hellman_agreement(self):
        alice = DHPrivateKey.generate(b"alice")
        bob = DHPrivateKey.generate(b"bob")
        assert alice.exchange(bob.public) == bob.exchange(alice.public)

    def test_distinct_parties_distinct_secrets(self):
        alice = DHPrivateKey.generate(b"alice")
        bob = DHPrivateKey.generate(b"bob")
        carol = DHPrivateKey.generate(b"carol")
        assert alice.exchange(bob.public) != alice.exchange(carol.public)

    def test_rejects_bad_sizes(self):
        with pytest.raises(CryptoError):
            x25519(b"short", b"\x09" + b"\x00" * 31)
        with pytest.raises(CryptoError):
            DHPrivateKey(b"short")


class TestHKDF:
    def test_rfc5869_case1(self):
        ikm = b"\x0b" * 22
        salt = bytes.fromhex("000102030405060708090a0b0c")
        info = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9")
        okm = hkdf(ikm, info, 42, salt)
        assert okm == bytes.fromhex(
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865"
        )

    def test_output_keyed_by_info(self):
        assert hkdf(b"secret", b"a", 32) != hkdf(b"secret", b"b", 32)


class TestECIES:
    def test_encrypt_decrypt_roundtrip(self):
        member = EncryptionKeyPair.generate(b"member0-enc")
        box = encrypt(member.public, b"recovery share #3", b"entropy")
        assert member.decrypt(box) == b"recovery share #3"

    def test_wrong_recipient_cannot_decrypt(self):
        member0 = EncryptionKeyPair.generate(b"m0")
        member1 = EncryptionKeyPair.generate(b"m1")
        box = encrypt(member0.public, b"share", b"entropy")
        with pytest.raises(VerificationError):
            member1.decrypt(box)

    def test_tampered_box_rejected(self):
        member = EncryptionKeyPair.generate(b"m0")
        box = bytearray(encrypt(member.public, b"share", b"entropy"))
        box[-1] ^= 0x01
        with pytest.raises(VerificationError):
            member.decrypt(bytes(box))

    def test_truncated_box_rejected(self):
        member = EncryptionKeyPair.generate(b"m0")
        with pytest.raises(VerificationError):
            member.decrypt(b"tiny")
