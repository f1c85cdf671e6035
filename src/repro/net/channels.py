"""Authenticated node-to-node channels.

Section 7: "Diffie-Hellman key exchange is used for node-to-node message
headers and message forwarding." Each pair of nodes derives a shared AEAD
key from their X25519 key pairs. What travels under that key comes in two
protections sharing one counter stream per peer:

- Per-message seals (:meth:`NodeChannels.seal` / :meth:`NodeChannels.open`)
  *encrypt*: they carry the join secrets (ledger secrets and the service
  key), which must never be readable outside an attested enclave.
- Per-frame seals (:meth:`NodeChannels.seal_frame` /
  :meth:`NodeChannels.open_frame`) *authenticate only*, as CCF sends
  consensus traffic: the frame travels as ``plaintext || tag``, where the
  tag is an AEAD seal of the empty string whose associated data binds the
  sender and the whole plaintext.
  Consensus messages need integrity and freshness, not secrecy: the
  private half of every replicated entry is already sealed under the
  ledger secret, and its public half is written to the host's disk anyway.
  Encrypting the frame as well would seal each private write set twice.

A node seals each consensus message into its own frame when it sends it,
and opens it when it arrives. A frame is replay-checked against a
per-sender counter watermark kept apart from the one :meth:`open` keeps,
so a join response delivered after newer consensus traffic is not taken
for a replay. Fast-path counters live in
:data:`repro.obs.metrics.RUNTIME_STATS` (``channel.establish.*``,
``channel.seal.*``, ``channel.frames.*``), reset per run.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.crypto.fastaead import TAG_SIZE, FastAEADKey
from repro.crypto.hkdf import hkdf
from repro.crypto.x25519 import DHPrivateKey
from repro.crypto.aead import nonce_from_counter
from repro.errors import VerificationError
from repro.obs.metrics import RUNTIME_STATS

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
        self._frame_watermarks: dict[str, int] = {}

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
        """Authenticate ``payloads`` for ``peer_id`` as one frame (a node
        sends one consensus message per frame).

        One tag and one counter increment cover the whole list. The
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

    def open_frame(self, sender: str, counter: int, box: bytes) -> list[bytes] | None:
        """Authenticate and unpack one frame into its payload list, or
        return None for a replay: a counter below ``sender``'s frame
        watermark, counted as ``channel.frames.replay_dropped``.

        A box shorter than the tag, a tag that does not verify, or a
        plaintext that is not whole length-prefixed payloads, raises
        :class:`VerificationError` and leaves the watermark where it was.
        The tag is checked before a byte of the plaintext is parsed.
        """
        if counter < self._frame_watermarks.get(sender, 0):
            RUNTIME_STATS.inc("channel.frames.replay_dropped")
            return None
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
        self._frame_watermarks[sender] = counter + 1
        RUNTIME_STATS.inc("channel.frames.opened")
        return payloads

    def _keys_for(self, peer_id: str) -> FastAEADKey:
        try:
            return self._keys[peer_id]
        except KeyError:
            raise VerificationError(f"no channel established with {peer_id}") from None
