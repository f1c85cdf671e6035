"""Consensus RPC messages (sections 4.1–4.2).

``append_entries`` replicates ledger entries (and doubles as the heartbeat
when empty); ``request_vote`` drives elections. Every message carries the
sender's view so receivers can synchronize views before processing.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import ConsensusError, KVError, LedgerError
from repro.ledger.entry import LedgerEntry, TxID


@dataclass(frozen=True)
class AppendEntries:
    """Primary → backup: entries after ``prev_txid``, plus commit point.

    The backup checks ``prev_txid`` against its own ledger before appending;
    this is the induction step that makes ledgers with a shared transaction
    ID share their whole prefix (section 4.1).
    """

    view: int
    leader_id: str
    prev_txid: TxID
    entries: tuple[LedgerEntry, ...] = ()
    leader_commit: int = 0


@dataclass(frozen=True)
class AppendEntriesResponse:
    """Backup → primary. On failure, ``match_hint`` is the backup's guess at
    the latest common point so the primary can rewind its next_index."""

    view: int
    sender: str
    success: bool
    # On success: the highest seqno this append_entries covered (prev +
    # appended entries). Deliberately NOT the backup's ledger length — a
    # stale uncommitted suffix must never count toward match_index.
    last_seqno: int = 0
    match_hint: int = 0  # on failure: guessed latest common seqno


@dataclass(frozen=True)
class RequestVote:
    """Candidate → all nodes: vote solicitation carrying the view and
    sequence number of the candidate's last signature transaction."""

    view: int
    candidate_id: str
    last_signature_txid: TxID


@dataclass(frozen=True)
class RequestVoteResponse:
    """Voter → candidate: whether the vote was granted."""

    view: int
    sender: str
    granted: bool


# ----------------------------------------------------------------------
# Wire codec: consensus messages travel between enclaves through untrusted
# hosts, sealed by the node-to-node channels — which need bytes. Nothing
# hashes, signs or persists these bytes, so they need a deterministic layout
# but not the canonical codec's sorted dicts: a kind byte, then a header of
# big-endian integers ending with the length of the UTF-8 node id that
# follows it. An AppendEntries then carries each entry as a 4-byte length
# and its memoized ``LedgerEntry.encode()`` bytes.

_AE = struct.Struct(">BQQQQIH")  # view, prev txid, commit, #entries
_AER = struct.Struct(">BQ?QQH")  # view, success, last seqno, match hint
_RV = struct.Struct(">BQQQH")  # view, last signature txid
_RVR = struct.Struct(">BQ?H")  # view, granted
_LAYOUTS = {
    0: (AppendEntries, _AE),
    1: (AppendEntriesResponse, _AER),
    2: (RequestVote, _RV),
    3: (RequestVoteResponse, _RVR),
}
_LENGTH = struct.Struct(">I")

# AppendEntries framing is memoized per message instance: within one
# broadcast the primary hands one message object to every peer at the same
# next_index (see ConsensusNode._send_append_entries), and they share its
# framing. Each window goes to each peer once, so peers rarely line up;
# what every send reuses is the entries' own memoized encodings. Channel
# sealing stays per-peer. Counters are exported via repro.obs.metrics as
# ``fastpath.ae_encode.*``.
ENCODE_STATS = {"ae_encode.encodes": 0, "ae_encode.reuses": 0}


def encode_message(message: object) -> bytes:
    """Serialize a consensus message to its wire layout."""
    if isinstance(message, AppendEntries):
        cached = message.__dict__.get("_encoded")
        if cached is not None:
            ENCODE_STATS["ae_encode.reuses"] += 1
            return cached
    data = _encode_message_uncached(message)
    if isinstance(message, AppendEntries):
        ENCODE_STATS["ae_encode.encodes"] += 1
        object.__setattr__(message, "_encoded", data)
    return data


def _encode_message_uncached(message: object) -> bytes:
    if isinstance(message, AppendEntries):
        node = message.leader_id.encode()
        prev = message.prev_txid
        parts = [
            _AE.pack(
                0, message.view, prev.view, prev.seqno, message.leader_commit,
                len(message.entries), len(node),
            ),
            node,
        ]
        for entry in message.entries:
            data = entry.encode()
            parts += (_LENGTH.pack(len(data)), data)
        return b"".join(parts)
    if isinstance(message, AppendEntriesResponse):
        node = message.sender.encode()
        header = _AER.pack(
            1, message.view, message.success, message.last_seqno,
            message.match_hint, len(node),
        )
    elif isinstance(message, RequestVote):
        node = message.candidate_id.encode()
        sig = message.last_signature_txid
        header = _RV.pack(2, message.view, sig.view, sig.seqno, len(node))
    elif isinstance(message, RequestVoteResponse):
        node = message.sender.encode()
        header = _RVR.pack(3, message.view, message.granted, len(node))
    else:
        raise ConsensusError(f"cannot encode {type(message).__name__}")
    return header + node


def decode_message(data: bytes) -> object:
    """Deserialize a consensus message from its wire layout. The bytes come
    off the network: anything malformed raises :class:`ConsensusError`."""
    try:
        kind, layout = _LAYOUTS[data[0]]
        _, view, *fields, id_length = layout.unpack_from(data)
        offset = layout.size + id_length
        if offset > len(data):
            raise ConsensusError("consensus message truncated in its node id")
        node = data[layout.size : offset].decode()
        if kind is AppendEntries:
            prev_view, prev_seqno, commit, count = fields
            entries = []
            for _ in range(count):
                (length,) = _LENGTH.unpack_from(data, offset)
                offset += _LENGTH.size + length
                if offset > len(data):
                    raise ConsensusError("consensus message truncated in an entry")
                entries.append(LedgerEntry.decode(data[offset - length : offset]))
            message = kind(view, node, TxID(prev_view, prev_seqno), tuple(entries), commit)
        elif kind is RequestVote:
            message = kind(view, node, TxID(*fields))
        else:
            message = kind(view, node, *fields)
    except (IndexError, KeyError, ValueError, struct.error, KVError, LedgerError) as exc:
        raise ConsensusError(f"malformed consensus message: {exc}") from exc
    if offset != len(data):
        raise ConsensusError("trailing bytes after consensus message")
    return message
