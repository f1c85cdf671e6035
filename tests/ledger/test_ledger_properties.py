"""Model-based property tests for the ledger (hypothesis).

A random sequence of operations — append user entry, append signature,
truncate to a random point — is applied both to the real :class:`Ledger`
and to a trivial reference model (a Python list). Every observable must
agree, and roots must be reproducible from scratch.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.ecdsa import SigningKey
from repro.errors import LedgerError
from repro.kv.serialization import encode_value
from repro.kv.tx import WriteSet
from repro.ledger.entry import TxID
from repro.ledger.ledger import Ledger
from repro.ledger.secrets import LedgerSecret, LedgerSecretStore

_KEY = SigningKey.generate(b"prop-signer")

# Operations: ("user",), ("sig",), ("truncate", fraction)
_operations = st.lists(
    st.one_of(
        st.just(("user",)),
        st.just(("sig",)),
        st.tuples(st.just("truncate"), st.floats(min_value=0.0, max_value=1.0)),
    ),
    max_size=40,
)


def _fresh_ledger():
    return Ledger(LedgerSecretStore(LedgerSecret.generate(b"prop")))


def _apply(ledger: Ledger, model: list, op, view: int) -> None:
    if op[0] == "user":
        ws = WriteSet()
        ws.put("m", ledger.last_seqno, ledger.last_seqno * 7)
        ledger.append(ledger.build_entry(view, ws))
        model.append(("user", view))
    elif op[0] == "sig":
        ledger.append(ledger.build_signature_entry(view, "signer", _KEY))
        model.append(("sig", view))
    else:
        target = int(len(model) * op[1])
        ledger.truncate(target)
        del model[target:]


class TestLedgerModel:
    @settings(max_examples=60, deadline=None)
    @given(_operations)
    def test_operations_match_model(self, operations):
        ledger = _fresh_ledger()
        model: list = []
        for op in operations:
            _apply(ledger, model, op, view=1)
            # Observables agree after every step.
            assert ledger.last_seqno == len(model)
            sig_seqnos = [i + 1 for i, (kind, _v) in enumerate(model) if kind == "sig"]
            expected_sig = TxID(1, sig_seqnos[-1]) if sig_seqnos else TxID(0, 0)
            assert ledger.last_signature_txid() == expected_sig
            # next_signature_seqno agrees with the model.
            after = len(model) // 2
            following = [s for s in sig_seqnos if s > after]
            assert ledger.next_signature_seqno(after) == (
                following[0] if following else None
            )

    @settings(max_examples=40, deadline=None)
    @given(_operations)
    def test_root_reproducible_from_scratch(self, operations):
        """After any op sequence, replaying the surviving entries into a
        fresh ledger yields the same Merkle root (truncation leaves no
        residue)."""
        ledger = _fresh_ledger()
        model: list = []
        for op in operations:
            _apply(ledger, model, op, view=1)
        rebuilt = _fresh_ledger()
        for entry in ledger.entries():
            rebuilt.append(entry)
        assert rebuilt.root() == ledger.root()
        assert rebuilt.last_signature_txid() == ledger.last_signature_txid()

    @settings(max_examples=40, deadline=None)
    @given(_operations, st.integers(min_value=0, max_value=100))
    def test_has_txid_consistency(self, operations, probe):
        ledger = _fresh_ledger()
        model: list = []
        for op in operations:
            _apply(ledger, model, op, view=1)
        seqno = probe % (len(model) + 2)
        expected = 1 <= seqno <= len(model)
        assert ledger.has_txid(TxID(1, seqno)) == expected if seqno else True
        # A different view at the same seqno is never present.
        if expected:
            assert not ledger.has_txid(TxID(9, seqno))

    @settings(max_examples=30, deadline=None)
    @given(_operations)
    def test_snapshot_metadata_roundtrip(self, operations):
        """A ledger bootstrapped from snapshot metadata agrees on roots and
        prefix txids with the original."""
        ledger = _fresh_ledger()
        model: list = []
        for op in operations:
            _apply(ledger, model, op, view=1)
        if ledger.last_seqno == 0:
            return
        base = ledger.last_seqno
        metadata = ledger.snapshot_metadata(base)
        restored = Ledger.from_snapshot_metadata(
            ledger.secrets,
            base_seqno=metadata["base_seqno"],
            view_starts=metadata["view_starts"],
            merkle_frontier=metadata["merkle_frontier"],
            last_signature_txid=TxID(*metadata["last_signature_txid"]),
        )
        assert restored.root() == ledger.root()
        assert restored.last_signature_txid() == ledger.last_signature_txid()
        for seqno in range(1, base + 1):
            assert restored.txid_at(seqno) == ledger.txid_at(seqno)


def _restore(ledger: Ledger, metadata: dict) -> Ledger:
    return Ledger.from_snapshot_metadata(
        ledger.secrets,
        base_seqno=metadata["base_seqno"],
        view_starts=metadata["view_starts"],
        merkle_frontier=metadata["merkle_frontier"],
        last_signature_txid=TxID(*metadata["last_signature_txid"]),
    )


def _multi_view_ledger(segments) -> Ledger:
    """One run of entries per ``(view gap, length)`` segment, a signature
    closing every third entry."""
    ledger = _fresh_ledger()
    model: list = []
    view = 0
    for gap, length in segments:
        view += gap
        for i in range(length):
            _apply(ledger, model, ("sig",) if i % 3 == 2 else ("user",), view)
    return ledger


# At least two views, each with at least one entry.
_segments = st.lists(
    st.tuples(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=8)),
    min_size=2,
    max_size=6,
)


class TestSnapshotManifest:
    """The ledger prefix a snapshot carries: a Merkle frontier and the
    first seqno of each view, O(log n + views) whatever the length."""

    @settings(max_examples=40, deadline=None)
    @given(_segments, st.data())
    def test_based_ledger_answers_every_txid_like_the_original(self, segments, data):
        ledger = _multi_view_ledger(segments)
        base = data.draw(st.integers(min_value=1, max_value=ledger.last_seqno))
        restored = _restore(ledger, ledger.snapshot_metadata(base))
        for entry in ledger.entries(base + 1):
            restored.append(entry)
        assert restored.root() == ledger.root()
        assert restored.last_txid() == ledger.last_txid()
        assert restored.view_starts() == ledger.view_starts()
        views = {start.view for start in ledger.view_starts()}
        for seqno in range(0, ledger.last_seqno + 2):
            if seqno <= ledger.last_seqno:
                assert restored.txid_at(seqno) == ledger.txid_at(seqno)
            for view in views | {0, max(views) + 1}:
                txid = TxID(view, seqno)
                assert restored.has_txid(txid) == ledger.has_txid(txid), txid
        # A rollback to the base and a new view on top still agree.
        for copy in (restored, ledger):
            copy.truncate(base)
            _apply(copy, [], ("user",), max(views) + 1)
        assert restored.root() == ledger.root()
        assert restored.txid_at(base + 1) == ledger.txid_at(base + 1)

    def test_manifest_grows_by_under_a_kilobyte_when_the_ledger_doubles(self):
        """Scaling pin: one leaf hash and txid per entry (55 bytes) would
        add tens of kilobytes here."""
        ledger = _multi_view_ledger([(1, 300), (1, 300), (2, 600)])
        half = ledger.snapshot_metadata(600)
        full = ledger.snapshot_metadata(1200)
        growth = len(encode_value(full)) - len(encode_value(half))
        assert growth < 1024, growth
        assert len(full["view_starts"]) == 3
        assert len(full["merkle_frontier"]) == bin(1200).count("1")

    def _metadata(self):
        ledger = _multi_view_ledger([(1, 5), (2, 6)])  # views 1 and 3; base 11
        return ledger, ledger.snapshot_metadata(11)

    def test_a_frontier_of_the_wrong_length_is_rejected(self):
        ledger, metadata = self._metadata()
        metadata["merkle_frontier"] = metadata["merkle_frontier"][:-1]
        with pytest.raises(LedgerError, match="peaks"):
            _restore(ledger, metadata)

    def test_view_starts_that_do_not_strictly_increase_are_rejected(self):
        ledger, metadata = self._metadata()
        assert metadata["view_starts"] == [[1, 1], [3, 6]]
        for starts in ([[1, 1], [1, 6]], [[1, 1], [3, 1]], [[3, 1], [1, 6]]):
            metadata["view_starts"] = starts
            with pytest.raises(LedgerError, match="view starts"):
                _restore(ledger, metadata)

    def test_a_last_signature_the_view_starts_contradict_is_rejected(self):
        ledger, metadata = self._metadata()
        view, seqno = metadata["last_signature_txid"]
        assert (view, seqno) == (3, 11)
        metadata["last_signature_txid"] = [1, seqno]
        with pytest.raises(LedgerError, match="last signature"):
            _restore(ledger, metadata)
