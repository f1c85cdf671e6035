"""Authenticated node-to-node channels.

A node seals each consensus message into its own frame when it sends it
(``NodeChannels.seal_frame``) and opens it on delivery
(``NodeChannels.open_frame``). These tests pin the frame format (round
trip, tamper, reflection, nonce discipline shared with per-message seals)
and the per-sender frame watermark that drops replays, and show at
service level that an altered frame applies no entry.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.consensus.messages import AppendEntries, decode_message, encode_message
from repro.crypto.aead import nonce_from_counter
from repro.crypto.fastaead import TAG_SIZE
from repro.crypto.x25519 import DHPrivateKey
from repro.errors import VerificationError
from repro.kv.tx import WriteSet
from repro.ledger.entry import EntryKind, LedgerEntry, TxID
from repro.net.channels import NodeChannels
from repro.obs.metrics import RUNTIME_STATS


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

    def test_seal_stats_count_calls_and_messages(self):
        a, _b = _pair()
        a.seal_frame("beta", [b"a", b"b", b"c", b"d"])
        assert RUNTIME_STATS.get("channel.seal.calls") == 1
        assert RUNTIME_STATS.get("channel.seal.messages") == 4
        assert RUNTIME_STATS.get("channel.frames.sealed") == 1


class TestFrameWatermark:
    """``open_frame`` keeps one counter watermark per sender: a frame is
    opened iff its counter is at or above it, and an opened frame moves it
    past its own counter."""

    def test_in_order_frames_accepted(self):
        a, b = _pair()
        for i in range(3):
            sealed = a.seal_frame("beta", [b"s%d" % i])
            assert b.open_frame("alpha", sealed.counter, sealed.box) == [b"s%d" % i]
        assert RUNTIME_STATS.get("channel.frames.opened") == 3

    def test_duplicate_frame_dropped(self):
        a, b = _pair()
        sealed = a.seal_frame("beta", [b"only"])
        assert b.open_frame("alpha", sealed.counter, sealed.box) == [b"only"]
        assert b.open_frame("alpha", sealed.counter, sealed.box) is None
        assert RUNTIME_STATS.get("channel.frames.replay_dropped") == 1

    def test_older_frame_after_newer_dropped(self):
        a, b = _pair()
        older = a.seal_frame("beta", [b"older"])
        newer = a.seal_frame("beta", [b"newer"])
        assert b.open_frame("alpha", newer.counter, newer.box) == [b"newer"]
        assert b.open_frame("alpha", older.counter, older.box) is None
        assert RUNTIME_STATS.get("channel.frames.replay_dropped") == 1

    def test_tag_failure_does_not_advance_watermark(self):
        a, b = _pair()
        sealed = a.seal_frame("beta", [b"payload"])
        forged = sealed.box[:-1] + bytes([sealed.box[-1] ^ 0x01])
        with pytest.raises(VerificationError):
            b.open_frame("alpha", sealed.counter, forged)
        # A forged frame with a far-ahead counter moves nothing either.
        with pytest.raises(VerificationError):
            b.open_frame("alpha", sealed.counter + 1000, sealed.box)
        assert b.open_frame("alpha", sealed.counter, sealed.box) == [b"payload"]
        assert RUNTIME_STATS.get("channel.frames.replay_dropped") == 0

    def test_late_single_seal_is_not_a_replay(self):
        # A join response sealed before newer consensus frames may arrive
        # after them; the frame watermark must not refuse it.
        a, b = _pair()
        single = a.seal("beta", b"join-secret")
        frame = a.seal_frame("beta", [b"append"])
        assert b.open_frame("alpha", frame.counter, frame.box) == [b"append"]
        assert b.open(single) == b"join-secret"

    def test_watermark_matches_per_message_counters(self):
        """Under shuffled delivery with duplicates, a frame is opened
        exactly when no later-sent frame was opened before it."""
        a, b = _pair()
        frames = [a.seal_frame("beta", [b"%d" % i]) for i in range(12)]
        delivery = frames * 2
        random.Random(99).shuffle(delivery)

        expected = 0
        for sealed in delivery:
            got = b.open_frame("alpha", sealed.counter, sealed.box)
            if sealed.counter >= expected:
                expected = sealed.counter + 1
                assert got == [b"%d" % sealed.counter]
            else:
                assert got is None


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


class TestRejectedFrames:
    @pytest.mark.parametrize("tamper", sorted(TAMPERS))
    def test_altered_frame_rejected_and_its_entry_not_delivered(self, tamper):
        a, b = _pair()
        channels = {"alpha": a, "beta": b}
        entry = LedgerEntry(
            txid=TxID(2, 1), kind=EntryKind.USER, public_writes=WriteSet(),
            private_blob=b"private-write-set-ciphertext",
        )
        append = AppendEntries(
            view=2, leader_id="alpha", prev_txid=TxID(1, 0), entries=(entry,)
        )
        sealed = a.seal_frame("beta", [encode_message(append)])
        sender, box, receiver = TAMPERS[tamper](sealed)
        with pytest.raises(VerificationError):
            channels[receiver].open_frame(sender, sealed.counter, box)
        assert RUNTIME_STATS.get("channel.frames.opened") == 0
        # The frame as sealed still delivers its entry: only the alteration
        # was refused, and it did not advance the replay watermark.
        [raw] = b.open_frame("alpha", sealed.counter, sealed.box)
        assert decode_message(raw).entries == (entry,)

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
