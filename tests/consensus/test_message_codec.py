"""Tests for the consensus wire codec (messages sealed between enclaves)."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus.messages import (
    AppendEntries,
    AppendEntriesResponse,
    RequestVote,
    RequestVoteResponse,
    decode_message,
    encode_message,
)
from repro.errors import ConsensusError
from repro.kv.tx import WriteSet
from repro.ledger.entry import TxID
from repro.ledger.ledger import Ledger
from repro.ledger.secrets import LedgerSecret, LedgerSecretStore


def _entries(n):
    ledger = Ledger(LedgerSecretStore(LedgerSecret.generate(b"codec")))
    out = []
    for i in range(n):
        ws = WriteSet()
        ws.put("m", i, f"value-{i}")
        entry = ledger.build_entry(2, ws)
        ledger.append(entry)
        out.append(entry)
    return tuple(out)


_POOL = _entries(40)
_U64 = st.integers(min_value=0, max_value=2**64 - 1)
_NODE_IDS = st.text(max_size=12)
_TXIDS = st.builds(TxID, _U64, _U64)
_MESSAGES = st.one_of(
    st.builds(
        AppendEntries,
        _U64,
        _NODE_IDS,
        _TXIDS,
        st.integers(0, len(_POOL)).map(lambda n: _POOL[:n]),
        _U64,
    ),
    st.builds(AppendEntriesResponse, _U64, _NODE_IDS, st.just(True), _U64, _U64),
    st.builds(
        AppendEntriesResponse, _U64, _NODE_IDS, st.just(False), st.just(0), _U64, _U64
    ),
    st.builds(RequestVote, _U64, _NODE_IDS, _TXIDS),
    st.builds(RequestVoteResponse, _U64, _NODE_IDS, st.booleans()),
)
# One message of each kind; node ids go beyond ASCII.
_SAMPLES = [
    AppendEntries(7, "nœud-1", TxID(6, 300), _POOL[:3], 2**64 - 1),
    AppendEntriesResponse(7, "узел-2", True, 256),
    AppendEntriesResponse(7, "узел-2", False, 0, 256, 300),
    RequestVote(2**32, "ノード", TxID(7, 255)),
    RequestVoteResponse(8, "n0", True),
]


class TestCodecRoundtrip:
    def test_append_entries(self):
        message = AppendEntries(
            view=3,
            leader_id="n2",
            prev_txid=TxID(2, 10),
            entries=_entries(4),
            leader_commit=8,
        )
        assert decode_message(encode_message(message)) == message

    def test_empty_heartbeat(self):
        message = AppendEntries(
            view=1, leader_id="n0", prev_txid=TxID(0, 0), entries=(), leader_commit=0
        )
        assert decode_message(encode_message(message)) == message

    def test_append_entries_response(self):
        for message in (
            AppendEntriesResponse(view=3, sender="n1", success=True, last_seqno=42),
            AppendEntriesResponse(view=3, sender="n1", success=False, match_hint=7),
            AppendEntriesResponse(
                view=3, sender="n1", success=False, match_hint=7, rejected=9
            ),
        ):
            assert decode_message(encode_message(message)) == message

    def test_a_success_ack_keeps_its_layout(self):
        message = AppendEntriesResponse(view=3, sender="n1", success=True, last_seqno=42)
        assert encode_message(message) == struct.pack(">BQ?QQH", 1, 3, True, 42, 0, 2) + b"n1"

    def test_a_failure_ack_names_the_seqno_it_rejected(self):
        message = AppendEntriesResponse(
            view=3, sender="n1", success=False, match_hint=7, rejected=9
        )
        assert encode_message(message) == struct.pack(">BQQQH", 4, 3, 7, 9, 2) + b"n1"

    def test_request_vote(self):
        message = RequestVote(view=5, candidate_id="n4", last_signature_txid=TxID(3, 4))
        assert decode_message(encode_message(message)) == message

    def test_request_vote_response(self):
        for granted in (True, False):
            message = RequestVoteResponse(view=5, sender="n0", granted=granted)
            assert decode_message(encode_message(message)) == message

    def test_entries_preserve_encrypted_payload(self):
        """Private blobs survive the trip byte-for-byte (the relaying host
        must not be able to — or need to — touch them)."""
        entries = _entries(2)
        message = AppendEntries(
            view=2, leader_id="n0", prev_txid=TxID(2, 0),
            entries=entries, leader_commit=0,
        )
        decoded = decode_message(encode_message(message))
        for original, roundtripped in zip(entries, decoded.entries):
            assert roundtripped.private_blob == original.private_blob
            assert roundtripped.leaf_data() == original.leaf_data()

    @settings(derandomize=True, deadline=None)
    @given(_MESSAGES)
    def test_every_kind_roundtrips(self, message):
        assert decode_message(encode_message(message)) == message


class TestCodecErrors:
    def test_unknown_message_type(self):
        with pytest.raises(ConsensusError):
            encode_message(object())

    def test_garbage_bytes(self):
        with pytest.raises(ConsensusError):
            decode_message(b"\x01\x02\x03")

    def test_unknown_kind(self):
        data = encode_message(RequestVoteResponse(view=1, sender="n0", granted=True))
        with pytest.raises(ConsensusError):
            decode_message(b"\x7f" + data[1:])

    @pytest.mark.parametrize("message", _SAMPLES, ids=lambda m: type(m).__name__)
    def test_every_proper_prefix_and_a_trailing_byte_raise(self, message):
        data = encode_message(message)
        assert decode_message(data) == message
        for cut in range(len(data)):
            with pytest.raises(ConsensusError):
                decode_message(data[:cut])
        with pytest.raises(ConsensusError):
            decode_message(data + b"\x00")

    def test_a_failure_in_the_success_layout_is_refused(self):
        data = struct.pack(">BQ?QQH", 1, 3, False, 0, 7, 2) + b"n1"
        with pytest.raises(ConsensusError):
            decode_message(data)

    def test_an_ack_that_is_both_kinds_is_refused(self):
        for message in (
            AppendEntriesResponse(3, "n1", True, last_seqno=4, rejected=2),
            AppendEntriesResponse(3, "n1", False, last_seqno=4, rejected=2),
        ):
            with pytest.raises(ConsensusError):
                encode_message(message)

    def test_bad_utf8_node_id(self):
        data = encode_message(RequestVoteResponse(view=1, sender="n0", granted=True))
        with pytest.raises(ConsensusError):
            decode_message(data[:-2] + b"\xff\xfe")

    def test_entry_length_past_the_end(self):
        entry = _POOL[0].encode()
        data = bytearray(encode_message(AppendEntries(1, "n0", TxID(1, 0), _POOL[:1])))
        at = len(data) - len(entry) - 4
        data[at : at + 4] = b"\xff\xff\xff\xff"
        with pytest.raises(ConsensusError):
            decode_message(bytes(data))

    def test_malformed_entry(self):
        entry = _POOL[0].encode()
        data = bytearray(encode_message(AppendEntries(1, "n0", TxID(1, 0), _POOL[:1])))
        data[len(data) - len(entry)] = 0xEE  # not a canonical type tag
        with pytest.raises(ConsensusError):
            decode_message(bytes(data))
