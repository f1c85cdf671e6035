"""Coalesced authenticated wire frames.

The coalescing claim is sharp: all consensus messages one node produces for
one peer within one scheduler event share a single frame tag, and compared
with one seal per message this changes *nothing observable* — not one
event, not one RNG draw, not one ledger byte. These tests pin the claim at
three levels: the frame format itself (roundtrip, tamper, reflection, nonce
discipline), the segment replay watermark (provably order-isomorphic to
per-message counters), and seeded full-stack chaos schedules diffed
digest-for-digest against the per-message oracle
(``tests/oracles/per_message_seal.py``).
"""

from __future__ import annotations

import contextlib
import dataclasses

import pytest

from repro.consensus.messages import AppendEntries, decode_message, encode_message
from repro.crypto.aead import nonce_from_counter
from repro.crypto.fastaead import TAG_SIZE
from repro.crypto.x25519 import DHPrivateKey
from repro.errors import VerificationError
from repro.kv.tx import WriteSet
from repro.ledger.entry import EntryKind, LedgerEntry, TxID
from repro.net.channels import (
    FrameAssembler,
    FramedLink,
    FrameSegment,
    NodeChannels,
    PendingFrame,
)
from repro.obs.metrics import RUNTIME_STATS
from repro.sim.chaos import ChaosEngine, ChaosSpec
from repro.sim.trace import TraceRecorder

from tests.oracles.per_message_seal import per_message_sealing


def _length_prefix(payload: bytes) -> bytes:
    return len(payload).to_bytes(4, "big")


def _authentic_box(key, sender: str, receiver: str, counter: int, plaintext: bytes) -> bytes:
    """``plaintext || tag`` exactly as ``seal_frame`` builds it, around any
    plaintext: the tag seals nothing, under the sender-direction nonce,
    with the sender's name and the plaintext as associated data."""
    nonce = nonce_from_counter(counter * 2 + (0 if sender < receiver else 1), 0x43)
    aad = _length_prefix(sender.encode()) + sender.encode() + plaintext
    return plaintext + key.seal(nonce, b"", aad=aad)


def _pair() -> tuple[NodeChannels, NodeChannels]:
    a = NodeChannels("alpha", DHPrivateKey.generate(b"frame-a"))
    b = NodeChannels("beta", DHPrivateKey.generate(b"frame-b"))
    a.establish("beta", b.public)
    b.establish("alpha", a.public)
    return a, b


class TestFrameCrypto:
    def test_frame_roundtrip_preserves_order(self):
        a, b = _pair()
        payloads = [b"msg-0", b"msg-1", b"msg-2" * 100, b""]
        sealed = a.seal_frame("beta", payloads)
        assert sealed.sender == "alpha"
        opened = b.open_frame("alpha", sealed.counter, sealed.box)
        assert opened == payloads

    def test_frame_uses_one_counter_increment(self):
        a, b = _pair()
        first = a.seal_frame("beta", [b"x", b"y", b"z"])
        second = a.seal_frame("beta", [b"w"])
        assert second.counter == first.counter + 1

    def test_frames_share_counter_stream_with_single_seals(self):
        # Interleaved frame and per-message seals must never collide on a
        # nonce: they draw from the same per-peer counter.
        a, b = _pair()
        frame = a.seal_frame("beta", [b"f0"])
        single = a.seal("beta", b"join-secret")
        frame2 = a.seal_frame("beta", [b"f1"])
        assert {frame.counter, single.counter, frame2.counter} == {0, 1, 2}
        assert b.open_frame("alpha", frame.counter, frame.box) == [b"f0"]
        assert b.open(single) == b"join-secret"
        assert b.open_frame("alpha", frame2.counter, frame2.box) == [b"f1"]

    def test_tampered_frame_rejected(self):
        a, b = _pair()
        sealed = a.seal_frame("beta", [b"payload"])
        tampered = bytes([sealed.box[0] ^ 0x01]) + sealed.box[1:]
        with pytest.raises(VerificationError):
            b.open_frame("alpha", sealed.counter, tampered)

    def test_frame_travels_as_plaintext_and_tag(self):
        # Frames are authenticated, not encrypted: the box is the
        # length-prefixed plaintext followed by a 16-byte tag, as long as an
        # encrypted box would be.
        a, b = _pair()
        sealed = a.seal_frame("beta", [b"hello", b"world!"])
        plaintext = _length_prefix(b"hello") + b"hello" + _length_prefix(b"world!") + b"world!"
        assert sealed.box[:-TAG_SIZE] == plaintext
        assert sealed.box == _authentic_box(
            a._keys["beta"], "alpha", "beta", sealed.counter, plaintext
        )

    @pytest.mark.parametrize("cut", [1, 5, 6])
    def test_truncated_frame_plaintext_rejected(self, cut):
        # A frame's plaintext is each payload behind a 4-byte length. An
        # authentic tag around a hand-cut plaintext must still fail to
        # parse: the tag proves who sent the bytes, not that they are whole.
        a, b = _pair()
        key = a._keys["beta"]
        plaintext = _length_prefix(b"hello") + b"hello"
        whole = _authentic_box(key, "alpha", "beta", 0, plaintext)
        assert b.open_frame("alpha", 0, whole) == [b"hello"]
        cut_box = _authentic_box(key, "alpha", "beta", 1, plaintext[:-cut])
        with pytest.raises(VerificationError, match="malformed"):
            b.open_frame("alpha", 1, cut_box)

    def test_seal_stats_amortization_visible(self):
        a, _b = _pair()
        RUNTIME_STATS.reset()
        a.seal_frame("beta", [b"a", b"b", b"c", b"d"])
        assert RUNTIME_STATS.get("channel.seal.calls") == 1
        assert RUNTIME_STATS.get("channel.seal.messages") == 4
        assert RUNTIME_STATS.get("channel.frames.sealed") == 1


class TestFrameAssembler:
    def _framed(self, channels: NodeChannels, payloads: list[bytes]):
        sealed = channels.seal_frame("beta", payloads)
        return sealed.counter, sealed.box, len(payloads)

    def test_in_order_segments_accepted(self):
        a, b = _pair()
        assembler = FrameAssembler(b)
        counter, box, count = self._framed(a, [b"s0", b"s1", b"s2"])
        for i in range(3):
            assert assembler.accept("alpha", counter, box, count, i) == f"s{i}".encode()

    def test_watermark_matches_per_message_counters(self):
        """The (counter, index) watermark drops exactly what per-message
        counters would drop: enumerate segments in send order, deliver in a
        shuffled order, and compare against the legacy accept rule."""
        import random

        a, b = _pair()
        assembler = FrameAssembler(b)
        frames = [self._framed(a, [b"%d-%d" % (f, i) for i in range(3)]) for f in range(4)]
        # Global stream position of segment (f, i) is (counter_f, i).
        stream = [
            (counter, i, box, count)
            for counter, box, count in frames
            for i in range(count)
        ]
        rng = random.Random(99)
        delivery = stream * 2  # duplicates too
        rng.shuffle(delivery)

        legacy_expected = (0, 0)  # legacy watermark over (counter, index) pairs
        for counter, i, box, count in delivery:
            legacy_accept = (counter, i) >= legacy_expected
            got = assembler.accept("alpha", counter, box, count, i)
            if legacy_accept:
                legacy_expected = (counter, i + 1)
                assert got == b"%d-%d" % (counter, i)
            else:
                assert got is None

    def test_replay_of_same_segment_dropped(self):
        a, b = _pair()
        assembler = FrameAssembler(b)
        counter, box, count = self._framed(a, [b"only"])
        RUNTIME_STATS.reset()
        assert assembler.accept("alpha", counter, box, count, 0) == b"only"
        assert assembler.accept("alpha", counter, box, count, 0) is None
        assert RUNTIME_STATS.get("channel.frames.replay_dropped") == 1

    def test_count_mismatch_raises(self):
        a, b = _pair()
        assembler = FrameAssembler(b)
        counter, box, _count = self._framed(a, [b"x", b"y"])
        with pytest.raises(VerificationError):
            assembler.accept("alpha", counter, box, 5, 0)

    def test_one_frame_opened_once(self):
        a, b = _pair()
        assembler = FrameAssembler(b)
        counter, box, count = self._framed(a, [b"p%d" % i for i in range(6)])
        RUNTIME_STATS.reset()
        for i in range(6):
            assembler.accept("alpha", counter, box, count, i)
        assert RUNTIME_STATS.get("channel.frames.opened") == 1


def _flip(box: bytes, index: int) -> bytes:
    index %= len(box)
    return box[:index] + bytes([box[index] ^ 0x01]) + box[index + 1 :]


# Each way a host can alter an authenticated frame in flight, as
# (claimed sender, box, receiving node) given the frame alpha sealed for beta.
TAMPERS = {
    # The last clear byte: still a well-formed frame, only the tag objects.
    "flipped-clear-byte": lambda sealed: ("alpha", _flip(sealed.box, -TAG_SIZE - 1), "beta"),
    "flipped-tag-byte": lambda sealed: ("alpha", _flip(sealed.box, -1), "beta"),
    "shorter-than-tag": lambda sealed: ("alpha", sealed.box[-TAG_SIZE + 1 :], "beta"),
    # Handed back to its sender, labelled as sent by its receiver.
    "reflected": lambda sealed: ("beta", sealed.box, "alpha"),
}


def _segment(sender: str, counter: int, box: bytes) -> FrameSegment:
    """Segment 0 of a one-message frame, as a host may hand it over."""
    frame = PendingFrame()
    frame.sender, frame.counter, frame.box, frame.count = sender, counter, box, 1
    return FrameSegment(frame=frame, index=0)


class TestRejectedFrames:
    """``FramedLink.accept`` drops a frame that fails to open and counts it
    as ``channel.frames.rejected``."""

    @pytest.mark.parametrize("tamper", sorted(TAMPERS))
    def test_altered_frame_rejected_and_its_entry_not_delivered(self, tamper):
        a, b = _pair()
        links = {"alpha": FramedLink(a, None, None), "beta": FramedLink(b, None, None)}
        entry = LedgerEntry(
            txid=TxID(2, 1), kind=EntryKind.USER, public_writes=WriteSet(),
            private_blob=b"private-write-set-ciphertext",
        )
        append = AppendEntries(
            view=2, leader_id="alpha", prev_txid=TxID(1, 0), entries=(entry,)
        )
        sealed = a.seal_frame("beta", [encode_message(append)])
        sender, box, receiver = TAMPERS[tamper](sealed)
        RUNTIME_STATS.reset()
        assert links[receiver].accept(_segment(sender, sealed.counter, box)) is None
        assert RUNTIME_STATS.get("channel.frames.rejected") == 1
        assert RUNTIME_STATS.get("channel.frames.opened") == 0
        # The frame as sealed still delivers its entry: only the alteration
        # was refused, and it did not advance the replay watermark.
        raw = links["beta"].accept(_segment("alpha", sealed.counter, sealed.box))
        assert decode_message(raw).entries == (entry,)
        assert RUNTIME_STATS.get("channel.frames.rejected") == 1

    def test_dropped_and_counted_but_an_unsealed_segment_is_not(self):
        a, b = _pair()
        link = FramedLink(b, network=None, scheduler=None)
        sealed = a.seal_frame("beta", [b"payload"])
        frame = PendingFrame()
        frame.sender, frame.counter, frame.count = sealed.sender, sealed.counter, 1
        frame.box = bytes([sealed.box[0] ^ 0x01]) + sealed.box[1:]
        assert link.accept(FrameSegment(frame=frame, index=0)) is None
        assert RUNTIME_STATS.get("channel.frames.rejected") == 1
        # Its sender crashed before the end-of-event seal ran: not a rejection.
        assert link.accept(FrameSegment(frame=PendingFrame(), index=0)) is None
        assert RUNTIME_STATS.get("channel.frames.rejected") == 1

    def test_no_entry_is_applied_from_a_tampered_box(self):
        for tamper in sorted(TAMPERS):
            self._primary_alters_frames_to_one_backup(tamper)

    @staticmethod
    def _primary_alters_frames_to_one_backup(tamper: str) -> None:
        from repro.service.service import CCFService, ServiceSetup

        service = CCFService(ServiceSetup(n_nodes=3, seed=7))
        service.bootstrap()
        primary = service.primary_node()
        victim, bystander = service.backup_nodes()
        seal_frame = primary.channels.seal_frame
        # In the service, "reflected" relabels the primary's frame as sent
        # by the victim that receives it.
        names = {"alpha": primary.node_id, "beta": victim.node_id}

        def alter(peer, payloads):
            sealed = seal_frame(peer, payloads)
            if peer != victim.node_id:
                return sealed
            sender, box, _receiver = TAMPERS[tamper](sealed)
            return dataclasses.replace(sealed, sender=names[sender], box=box)

        primary.channels.seal_frame = alter
        RUNTIME_STATS.reset()
        held = primary.ledger.last_seqno  # all the victim can have been sent intact
        user = service.any_user_client()
        for i in range(5):
            user.send(primary.node_id, "/app/write_message", {"id": i, "msg": f"m{i}"})
        # Shorter than the victim's election timeout, so it does not campaign.
        service.run(0.06)
        assert RUNTIME_STATS.get("channel.frames.rejected") > 0, tamper
        assert victim.ledger.last_seqno <= held, tamper
        assert bystander.ledger.last_seqno > held, tamper
        del primary.channels.seal_frame
        service.run(1.0)
        assert victim.ledger.last_seqno > held, tamper


class TestChaosDifferential:
    """Acceptance gate: seeded chaos runs are bit-identical with frames
    (production) and with one seal per message (the oracle)."""

    @pytest.mark.parametrize("seed", list(range(10)))
    def test_trace_digests_identical_on_off(self, seed: int):
        def run(sealing):
            with sealing():
                tracer = TraceRecorder()
                report = ChaosEngine(ChaosSpec(n_nodes=3, steps=2)).run_schedule(
                    seed, tracer=tracer
                )
                return tracer.digest, report.fingerprint(), RUNTIME_STATS.snapshot()

        digest_on, fingerprint_on, stats_on = run(contextlib.nullcontext)
        digest_off, fingerprint_off, stats_off = run(per_message_sealing)
        assert digest_on == digest_off
        assert fingerprint_on == fingerprint_off
        # The two runs really sealed differently.
        assert stats_on["channel.frames.sealed"] > 0
        assert stats_off.get("channel.frames.sealed", 0) == 0
        assert stats_off["channel.seal.calls"] > 0

    def test_ledger_bytes_identical_on_off(self):
        """Beyond digests: the replicated ledgers themselves, byte for
        byte, across every node of a healthy service under load."""
        from repro.service.service import CCFService, ServiceSetup

        def ledgers() -> tuple[dict[str, list[bytes]], int]:
            service = CCFService(ServiceSetup(n_nodes=3, seed=7))
            service.bootstrap()
            user = service.any_user_client()
            primary = service.primary_node().node_id
            for i in range(20):
                user.call(primary, "/app/write_message", {"id": i, "msg": f"m{i}"})
            service.run(1.0)
            return {
                node_id: [entry.encode() for entry in node.ledger.entries()]
                for node_id, node in service.nodes.items()
            }, service.network.segments_sent

        on, segments_on = ledgers()
        with per_message_sealing():
            off, segments_off = ledgers()
        assert segments_on > 0 and segments_off == 0  # really two sealings
        assert on == off
        assert all(len(entries) > 5 for entries in on.values())

    def test_frames_actually_coalesce_under_load(self):
        """Guard against silently testing the degenerate 1-message frame:
        a service under write load, default configuration, must seal some
        multi-message frames."""
        from repro.service.service import CCFService, ServiceSetup

        RUNTIME_STATS.reset()
        service = CCFService(ServiceSetup(n_nodes=3, seed=13))
        service.bootstrap()
        user = service.any_user_client()
        primary = service.primary_node().node_id
        for i in range(60):
            user.call(primary, "/app/write_message", {"id": i, "msg": "x" * 64})
        service.run(1.0)
        sealed = RUNTIME_STATS.get("channel.frames.sealed")
        messages = RUNTIME_STATS.get("channel.seal.messages")
        assert sealed > 0
        assert messages > sealed  # some frame carried more than one message
        assert service.network.segments_sent > 0
