"""Authenticated node-to-node channels.

Section 7: "Diffie-Hellman key exchange is used for node-to-node message
headers and message forwarding." Each pair of nodes derives a shared AEAD
key from their X25519 key pairs. What travels under that key comes in two
protections sharing one counter stream per peer:

- Per-message seals (:meth:`NodeChannels.seal` / :meth:`NodeChannels.open`)
  *encrypt*: they carry the join secrets (ledger secrets and the service
  key), which must never be readable outside an attested enclave.
- Per-frame seals (:meth:`NodeChannels.seal_frame` / :class:`FrameAssembler`)
  *authenticate only*, as CCF sends consensus traffic: the frame travels
  as ``plaintext || tag``, where the tag is an AEAD seal of the empty
  string whose associated data binds the sender and the whole plaintext.
  Consensus messages need integrity and freshness, not secrecy: the
  private half of every replicated entry is already sealed under the
  ledger secret, and its public half is written to the host's disk anyway.
  Encrypting the frame as well would seal each private write set twice.

A frame packs every consensus message a node produced for one peer during
one scheduler event behind a single tag and a single counter increment.
:class:`FramedLink` is one node's framed traffic in both directions: the
sender half that fills and seals frames, and the assembler that opens them.
Fast-path counters live in :data:`repro.obs.metrics.RUNTIME_STATS`
(``channel.establish.*``, ``channel.seal.*``, ``channel.frames.*``), reset
per run.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.crypto.fastaead import TAG_SIZE, FastAEADKey
from repro.crypto.hkdf import hkdf
from repro.crypto.x25519 import DHPrivateKey
from repro.crypto.aead import nonce_from_counter
from repro.errors import VerificationError
from repro.net.network import Network
from repro.obs.metrics import RUNTIME_STATS
from repro.sim.scheduler import Scheduler

_CHANNEL_DOMAIN = 0x43  # 'C'
_LENGTH = struct.Struct(">I")  # a frame's plaintext: each payload behind its length


def _frame_aad(sender: str, plaintext: bytes) -> bytes:
    """What a frame's tag authenticates: its sender, then its plaintext."""
    name = sender.encode()
    return _LENGTH.pack(len(name)) + name + plaintext


@dataclass(frozen=True)
class SealedMessage:
    """A channel-protected message: sender, counter, sealed payload."""

    sender: str
    counter: int
    box: bytes


class NodeChannels:
    """One node's view of its pairwise channels."""

    def __init__(self, node_id: str, dh_key: DHPrivateKey):
        self.node_id = node_id
        self._dh = dh_key
        self._peer_publics: dict[str, bytes] = {}
        self._keys: dict[str, FastAEADKey] = {}
        self._send_counters: dict[str, int] = {}
        self._recv_counters: dict[str, int] = {}

    @property
    def public(self) -> bytes:
        return self._dh.public

    def establish(self, peer_id: str, peer_public: bytes) -> None:
        """Derive the shared channel key with ``peer_id``.

        Both sides derive the same key because the HKDF info string orders
        the two node IDs canonically. Re-establishing with an unchanged peer
        public key is a no-op (same inputs derive the same key, so skipping
        the exchange cannot change behaviour); a *changed* key — the peer
        restarted with a fresh DH pair — re-derives as before.
        """
        if (
            self._peer_publics.get(peer_id) == peer_public
            and peer_id in self._keys
        ):
            RUNTIME_STATS.inc("channel.establish.reused")
            return
        RUNTIME_STATS.inc("channel.establish.derived")
        shared = self._dh.exchange(peer_public)
        low, high = sorted([self.node_id, peer_id])
        key_bytes = hkdf(shared, b"repro-channel|" + low.encode() + b"|" + high.encode(), 32)
        self._peer_publics[peer_id] = peer_public
        self._keys[peer_id] = FastAEADKey(key_bytes)
        self._send_counters.setdefault(peer_id, 0)
        self._recv_counters.setdefault(peer_id, 0)

    def has_channel(self, peer_id: str) -> bool:
        return peer_id in self._keys

    def _send_nonce(self, peer_id: str) -> tuple[int, bytes]:
        counter = self._send_counters[peer_id]
        self._send_counters[peer_id] = counter + 1
        # Each direction uses its own nonce half-space (sender identity in
        # the AAD prevents reflection).
        nonce = nonce_from_counter(
            counter * 2 + (0 if self.node_id < peer_id else 1), _CHANNEL_DOMAIN
        )
        return counter, nonce

    def seal(self, peer_id: str, payload: bytes) -> SealedMessage:
        key = self._keys_for(peer_id)
        counter, nonce = self._send_nonce(peer_id)
        RUNTIME_STATS.inc("channel.seal.calls")
        RUNTIME_STATS.inc("channel.seal.messages")
        box = key.seal(nonce, payload, aad=self.node_id.encode())
        return SealedMessage(sender=self.node_id, counter=counter, box=box)

    def seal_frame(self, peer_id: str, payloads: list[bytes]) -> SealedMessage:
        """Authenticate a batch of payloads for ``peer_id`` as one frame.

        One tag and one counter increment cover the whole batch. The
        plaintext is each payload behind its 4-byte length, concatenated,
        so the frame is self-describing and receivers recover the payloads
        in send order; it travels in the clear, followed by its tag (see
        the module docstring for why). Frames share the per-peer counter
        stream with single-message seals, so the nonce space stays
        collision-free even when the two granularities interleave (e.g.
        join secrets mid-run).
        """
        key = self._keys_for(peer_id)
        counter, nonce = self._send_nonce(peer_id)
        RUNTIME_STATS.inc("channel.seal.calls")
        RUNTIME_STATS.inc("channel.seal.messages", len(payloads))
        RUNTIME_STATS.inc("channel.frames.sealed")
        plaintext = b"".join(_LENGTH.pack(len(payload)) + payload for payload in payloads)
        tag = key.seal(nonce, b"", aad=_frame_aad(self.node_id, plaintext))
        return SealedMessage(sender=self.node_id, counter=counter, box=plaintext + tag)

    def open(self, message: SealedMessage) -> bytes:
        key = self._keys_for(message.sender)
        expected = self._recv_counters[message.sender]
        if message.counter < expected:
            raise VerificationError(
                f"replayed channel message from {message.sender} "
                f"(counter {message.counter} < {expected})"
            )
        nonce = nonce_from_counter(
            message.counter * 2 + (0 if message.sender < self.node_id else 1),
            _CHANNEL_DOMAIN,
        )
        payload = key.open(nonce, message.box, aad=message.sender.encode())
        self._recv_counters[message.sender] = message.counter + 1
        return payload

    def open_frame(self, sender: str, counter: int, box: bytes) -> list[bytes]:
        """Authenticate and unpack one frame into its payload list; a box
        shorter than the tag, a tag that does not verify, or a plaintext
        that is not whole length-prefixed payloads, raises
        :class:`VerificationError`. The tag is checked before a byte of the
        plaintext is parsed.

        Does *not* consult or advance the per-message replay watermark —
        frame replay protection is segment-granular and lives in
        :class:`FrameAssembler`, which tracks ``(counter, index)`` pairs.
        """
        key = self._keys_for(sender)
        if len(box) < TAG_SIZE:
            raise VerificationError(f"frame from {sender} shorter than its tag")
        nonce = nonce_from_counter(
            counter * 2 + (0 if sender < self.node_id else 1), _CHANNEL_DOMAIN
        )
        plaintext, tag = box[:-TAG_SIZE], box[-TAG_SIZE:]
        key.open(nonce, tag, aad=_frame_aad(sender, plaintext))
        payloads = []
        offset = 0
        while offset + _LENGTH.size <= len(plaintext):
            (length,) = _LENGTH.unpack_from(plaintext, offset)
            offset += _LENGTH.size + length
            payloads.append(plaintext[offset - length : offset])
        if offset != len(plaintext):
            raise VerificationError(f"malformed frame from {sender}")
        RUNTIME_STATS.inc("channel.frames.opened")
        return payloads

    def _keys_for(self, peer_id: str) -> FastAEADKey:
        try:
            return self._keys[peer_id]
        except KeyError:
            raise VerificationError(f"no channel established with {peer_id}") from None


class FrameAssembler:
    """Receiver-side frame handling with per-segment replay protection.

    Segments of one frame arrive as independent network messages (they take
    independent latency draws, like the uncoalesced messages they replace),
    so acceptance must be decided per segment. The watermark is the pair
    ``(frame counter, segment index)`` compared lexicographically: a segment
    is accepted iff its pair is >= the watermark, which then advances to
    ``(counter, index + 1)``.

    This is order-isomorphic to per-message counters: number the messages
    of a one-seal-per-message run in send order and `(counter, index)`
    enumerates exactly that sequence, so "accept iff not overtaken by a
    later-accepted message" drops the same messages under any reordering,
    duplication, or loss pattern — the property the frames-vs-per-message
    differential chaos test pins down.
    """

    def __init__(self, channels: NodeChannels):
        self._channels = channels
        self._watermarks: dict[str, tuple[int, int]] = {}
        # One opened frame per sender is all the cache ever needs: a
        # segment of an older frame is below the watermark by construction.
        self._opened: dict[str, tuple[int, list[bytes]]] = {}

    def accept(
        self, sender: str, counter: int, box: bytes, count: int, index: int
    ) -> bytes | None:
        """Return segment ``index``'s payload, or None if replay-dropped.

        Raises :class:`VerificationError` on tamper (tag failure) or a
        frame whose advertised segment count does not match its contents.
        """
        watermark = self._watermarks.get(sender, (0, 0))
        if (counter, index) < watermark:
            RUNTIME_STATS.inc("channel.frames.replay_dropped")
            return None
        cached = self._opened.get(sender)
        if cached is not None and cached[0] == counter:
            payloads = cached[1]
        else:
            payloads = self._channels.open_frame(sender, counter, box)
            self._opened[sender] = (counter, payloads)
        if len(payloads) != count or index >= len(payloads):
            raise VerificationError(
                f"frame from {sender} advertises {count} segments, "
                f"carries {len(payloads)}"
            )
        self._watermarks[sender] = (counter, index + 1)
        return payloads[index]


class PendingFrame:
    """A coalesced wire frame, mutable until sealed.

    Created when a node produces its first consensus message for a peer
    within one scheduler event; every further message for that peer in the
    same event joins the frame. Segments referencing the frame are put on
    the network *immediately* (keeping the event order and latency-draw
    assignment of one send per message); the single AEAD seal happens in an
    end-of-event microtask, which fills ``sender``/``counter``/``box``/
    ``count`` in place. Simulated latency is strictly positive, so the seal
    always lands before the first segment delivers.
    """

    __slots__ = ("sender", "counter", "box", "count", "payload_sizes")

    def __init__(self) -> None:
        self.sender = ""
        self.counter = -1
        self.box: bytes | None = None
        self.count = 0
        self.payload_sizes: list[int] = []


@dataclass(frozen=True)
class FrameSegment:
    """One message's slot in a :class:`PendingFrame`, sent as an ordinary
    network payload. The receiver opens the (shared) frame once and indexes
    into it; replay protection is per segment (``(counter, index)`` pairs,
    see :class:`FrameAssembler`)."""

    frame: PendingFrame
    index: int


class FramedLink:
    """One node's sealed-frame traffic: the sender half beside a
    :class:`FrameAssembler` for what arrives."""

    def __init__(
        self,
        channels: NodeChannels,
        network: Network,
        scheduler: Scheduler,
    ):
        self.node_id = channels.node_id
        self._channels = channels
        self._network = network
        self._scheduler = scheduler
        # Per-peer pending frame for the current scheduler event, plus the
        # raw payloads awaiting the single end-of-event seal.
        self._pending: dict[str, tuple[PendingFrame, list[bytes]]] = {}
        self._assembler = FrameAssembler(channels)

    def send(self, to: str, raw: bytes) -> None:
        """Queue ``raw`` into this event's frame for ``to`` and put its
        segment on the wire immediately.

        The segment takes the exact network path (event, sequence number,
        latency draw) a per-message seal would take — only the AEAD work
        moves, into one end-of-event seal per peer. The seal microtask
        draws no randomness and schedules nothing, so a traced run is
        bit-identical to one that seals every message on its own
        (``tests/oracles/per_message_seal.py``).
        """
        first_of_event = not self._pending
        pending = self._pending.get(to)
        if pending is None:
            pending = (PendingFrame(), [])
            self._pending[to] = pending
        frame, payloads = pending
        index = len(payloads)
        payloads.append(raw)
        frame.payload_sizes.append(len(raw))
        if first_of_event:
            # Arm before the send: for out-of-event sends (bootstrap) the
            # hook runs synchronously, and it must run after the payload is
            # queued but sealing-before-delivery still holds (latency > 0).
            self._scheduler.at_event_end(self._seal_pending)
        self._network.send(self.node_id, to, FrameSegment(frame=frame, index=index))

    def _seal_pending(self) -> None:
        """End-of-event microtask: one frame tag per (this node, peer)."""
        pending = self._pending
        self._pending = {}
        for peer, (frame, payloads) in pending.items():
            sealed = self._channels.seal_frame(peer, payloads)
            frame.sender = sealed.sender
            frame.counter = sealed.counter
            frame.box = sealed.box
            frame.count = len(payloads)
            obs = self._scheduler.obs
            if obs is not None:
                obs.frame_sealed(self.node_id, len(payloads))

    def accept(self, segment: FrameSegment) -> bytes | None:
        """The payload ``segment`` carries, or None when it is dropped: its
        sender crashed before the end-of-event seal ran, the segment is a
        replay, or — counted as ``channel.frames.rejected`` — the peer is
        unknown or the frame was tampered with or is malformed."""
        frame = segment.frame
        if frame.box is None:
            return None
        try:
            return self._assembler.accept(
                frame.sender, frame.counter, frame.box, frame.count, segment.index
            )
        except VerificationError:
            RUNTIME_STATS.inc("channel.frames.rejected")
            return None
