"""Adversarial tests for the ECDSA verification memo.

The memo collapses repeated verifications of one (public key, message
digest, signature) triple — the N-followers-re-verify-one-signature shape.
These tests attack the cases where a cache could change security outcomes:
forged signatures must never become cached-valid, a hit must require the
*full* triple to match, eviction must be harmless, and a chaos schedule
must produce byte-identical traces with the memo on and off.
"""

import pytest

from repro.crypto import ecdsa
from repro.crypto.ecdsa import (
    MEMO_STATS,
    SigningKey,
    clear_verify_memo,
)
from repro.errors import VerificationError
from repro.sim.chaos import ChaosEngine, ChaosSpec
from repro.sim.trace import TraceRecorder


@pytest.fixture(autouse=True)
def _memo_isolation():
    """Each test starts with an empty memo and leaves it clean."""
    clear_verify_memo()
    yield
    clear_verify_memo()


class TestForgeryResistance:
    def test_forged_signature_never_cached_valid(self):
        key = SigningKey.generate(b"memo-forgery")
        public = key.public_key
        message = b"transfer 1000 coins"
        good = key.sign(message)
        forged = bytearray(good)
        forged[40] ^= 0x01
        forged = bytes(forged)

        for _ in range(5):
            with pytest.raises(VerificationError):
                public.verify(forged, message)
        # The failure was re-established by a full check every time — the
        # memo stores successes only, so a forgery can never be laundered.
        assert (public.encode(), bytes(ecdsa.sha256(message)), forged) not in (
            ecdsa._VERIFY_MEMO
        )
        public.verify(good, message)  # the genuine signature still verifies

    def test_failure_after_cached_success_still_fails(self):
        key = SigningKey.generate(b"memo-order")
        public = key.public_key
        message = b"governance vote"
        good = key.sign(message)
        public.verify(good, message)  # cached
        public.verify(good, message)  # hit
        forged = good[:-1] + bytes([good[-1] ^ 0xFF])
        with pytest.raises(VerificationError):
            public.verify(forged, message)


class TestFullTripleKeying:
    def test_hit_requires_all_three_components(self):
        key_a = SigningKey.generate(b"memo-key-a")
        key_b = SigningKey.generate(b"memo-key-b")
        message = b"merkle root 1"
        signature = key_a.sign(message)
        key_a.public_key.verify(signature, message)
        hits_before = MEMO_STATS["verify_memo.hits"]

        # Same signature and message, different key: must re-verify and fail.
        with pytest.raises(VerificationError):
            key_b.public_key.verify(signature, message)
        # Same key and signature, different message: must re-verify and fail.
        with pytest.raises(VerificationError):
            key_a.public_key.verify(signature, b"merkle root 2")
        # Same key and message, different (valid-range) signature: re-verify.
        other = key_a.sign(b"something else")
        with pytest.raises(VerificationError):
            key_a.public_key.verify(other, message)
        assert MEMO_STATS["verify_memo.hits"] == hits_before

        # The exact original triple still hits.
        key_a.public_key.verify(signature, message)
        assert MEMO_STATS["verify_memo.hits"] == hits_before + 1


class TestEviction:
    def test_eviction_is_harmless(self, monkeypatch):
        monkeypatch.setattr(ecdsa, "_VERIFY_MEMO_MAX", 4)
        key = SigningKey.generate(b"memo-evict")
        public = key.public_key
        pairs = [(key.sign(b"msg-%d" % i), b"msg-%d" % i) for i in range(10)]
        evictions_before = MEMO_STATS["verify_memo.evictions"]
        for signature, message in pairs:
            public.verify(signature, message)
        assert len(ecdsa._VERIFY_MEMO) <= 4
        assert MEMO_STATS["verify_memo.evictions"] > evictions_before
        # Evicted entries simply re-verify — same outcome, slower path.
        for signature, message in pairs:
            public.verify(signature, message)
        forged = pairs[0][0][:-1] + b"\x00"
        with pytest.raises(VerificationError):
            public.verify(forged, pairs[0][1])

    def test_lru_order_refreshes_on_hit(self, monkeypatch):
        monkeypatch.setattr(ecdsa, "_VERIFY_MEMO_MAX", 2)
        key = SigningKey.generate(b"memo-lru")
        public = key.public_key
        sig_a = key.sign(b"a")
        sig_b = key.sign(b"b")
        public.verify(sig_a, b"a")
        public.verify(sig_b, b"b")
        public.verify(sig_a, b"a")  # refresh A
        public.verify(key.sign(b"c"), b"c")  # evicts B, not A
        assert (public.encode(), bytes(ecdsa.sha256(b"a")), sig_a) in ecdsa._VERIFY_MEMO
        assert (public.encode(), bytes(ecdsa.sha256(b"b")), sig_b) not in ecdsa._VERIFY_MEMO


class TestChaosDifferential:
    def test_memo_on_and_off_produce_identical_traces(self, monkeypatch):
        """A seeded 5-node chaos schedule must be trace-for-trace identical
        with the memo working and with a memo that never remembers: the
        memo may only change host wall-clock, never an event, an RNG draw,
        or an outcome."""
        spec = ChaosSpec(steps=2, p_crash=0.3)
        seed = 11

        def run():
            clear_verify_memo()
            tracer = TraceRecorder()
            report = ChaosEngine(spec).run_schedule(seed, tracer=tracer)
            return tracer.digest, report.fingerprint()

        hits_before = MEMO_STATS["verify_memo.hits"]
        with_memo = run()
        assert MEMO_STATS["verify_memo.hits"] > hits_before  # not vacuous
        monkeypatch.setattr(ecdsa, "_verify_memo_store", lambda key: None)
        hits_before = MEMO_STATS["verify_memo.hits"]
        without_memo = run()
        assert MEMO_STATS["verify_memo.hits"] == hits_before
        assert with_memo == without_memo
