"""Tests for lazy index rebuilding, batched commit feeds, and the
consensus endpoint."""

import pytest

from repro.kv.tx import WriteSet
from repro.ledger.entry import TxID
from repro.node.indexer import Indexer, KeyWriteIndex

from tests.node.conftest import make_service


def _ws(key, value):
    ws = WriteSet()
    ws.put("records", key, value)
    return ws


class TestLazyIndexing:
    def test_lazy_rebuild_matches_eager(self):
        service = make_service(n_nodes=1)
        user = service.any_user_client()
        node = service.primary_node()
        for i in range(6):
            user.call(node.node_id, "/app/write_message", {"id": i % 2, "msg": f"m{i}"})
        service.run(0.3)
        # The node's own (eager) index.
        eager = node.indexer.strategy("message_writes")
        # A fresh, lazily built index over the same ledger.
        lazy_indexer = Indexer()
        lazy_indexer.install(KeyWriteIndex("message_writes", "records"))
        processed = lazy_indexer.rebuild_lazily(node.ledger, node.consensus.commit_seqno)
        assert processed > 0
        lazy = lazy_indexer.strategy("message_writes")
        for key in (0, 1):
            assert lazy.txids_for_key(key) == eager.txids_for_key(key)

    def test_lazy_rebuild_is_incremental(self):
        service = make_service(n_nodes=1)
        user = service.any_user_client()
        node = service.primary_node()
        user.call(node.node_id, "/app/write_message", {"id": 1, "msg": "a"})
        service.run(0.3)
        indexer = Indexer()
        indexer.install(KeyWriteIndex("message_writes", "records"))
        first = indexer.rebuild_lazily(node.ledger, node.consensus.commit_seqno)
        again = indexer.rebuild_lazily(node.ledger, node.consensus.commit_seqno)
        assert first > 0
        assert again == 0  # nothing new to process


class TestBatchedFeed:
    """Regression tests for ``Indexer.feed_batch`` — the consumer of the
    batched commit notifications emitted once per commit advance."""

    def _indexer(self):
        indexer = Indexer()
        indexer.install(KeyWriteIndex("message_writes", "records"))
        return indexer

    def test_batch_feed_matches_serial_feed(self):
        items = [(TxID(1, s), _ws(s % 2, f"v{s}")) for s in range(1, 7)]
        serial, batched = self._indexer(), self._indexer()
        for txid, ws in items:
            serial.feed(txid, ws)
        fed = batched.feed_batch(items)
        assert fed == 6
        assert batched.last_indexed == serial.last_indexed == 6
        for key in (0, 1):
            assert (
                batched.strategy("message_writes").txids_for_key(key)
                == serial.strategy("message_writes").txids_for_key(key)
            )

    def test_overlap_with_eager_feed_does_not_double_index(self):
        """Catch-up replay can hand the indexer a batch overlapping what an
        eager per-entry feed already covered: the overlap must be skipped,
        not indexed twice."""
        indexer = self._indexer()
        items = [(TxID(1, s), _ws(0, f"v{s}")) for s in range(1, 5)]
        for txid, ws in items[:2]:  # eager feed covered seqnos 1-2
            indexer.feed(txid, ws)
        fed = indexer.feed_batch(items)  # batch replays 1-4
        assert fed == 2  # only 3 and 4 are new
        assert indexer.last_indexed == 4
        txids = indexer.strategy("message_writes").txids_for_key(0)
        assert txids == [TxID(1, s) for s in range(1, 5)]  # each exactly once

    def test_unordered_batch_is_applied_in_seqno_order(self):
        indexer = self._indexer()
        items = [(TxID(1, s), _ws(0, f"v{s}")) for s in (3, 1, 2)]
        assert indexer.feed_batch(items) == 3
        txids = indexer.strategy("message_writes").txids_for_key(0)
        assert txids == [TxID(1, 1), TxID(1, 2), TxID(1, 3)]

    def test_repeated_batch_is_idempotent(self):
        indexer = self._indexer()
        items = [(TxID(1, s), _ws(0, f"v{s}")) for s in range(1, 4)]
        assert indexer.feed_batch(items) == 3
        assert indexer.feed_batch(items) == 0
        assert len(indexer.strategy("message_writes").txids_for_key(0)) == 3

    def test_batched_service_indexes_each_commit_once(self):
        """End to end: a commit advance feeds the node-side indexer one
        batch, and the indexer sees every committed write exactly once —
        ``message_history`` (an index-backed endpoint) lists one TxID per
        write, no duplicates."""
        service = make_service(n_nodes=1, signature_interval=10)
        user = service.any_user_client()
        node = service.primary_node()
        txids = []
        for i in range(6):
            resp = user.call(
                node.node_id, "/app/write_message", {"id": 1, "msg": f"m{i}"}
            )
            assert resp.ok
            txids.append(resp.txid)
        service.run(0.5)
        history = user.call(node.node_id, "/app/message_history", {"id": 1})
        assert history.ok
        assert history.body["writes"] == txids  # once each, in order


class TestConsensusEndpoint:
    def test_consensus_introspection(self):
        service = make_service(n_nodes=3)
        user = service.any_user_client()
        primary = service.primary_node()
        response = user.call(primary.node_id, "/node/consensus", {})
        assert response.ok
        body = response.body
        assert body["role"] == "Primary"
        assert body["leader"] == primary.node_id
        assert body["commit_seqno"] <= body["last_seqno"]
        assert len(body["configurations"]) == 1
        assert sorted(body["configurations"][0]["nodes"]) == ["n0", "n1", "n2"]
        assert body["view_history"][0]["view"] == 1

    def test_backup_reports_backup_role(self):
        service = make_service(n_nodes=3)
        user = service.any_user_client()
        backup = service.backup_nodes()[0]
        response = user.call(backup.node_id, "/node/consensus", {})
        assert response.body["role"] == "Backup"
        assert response.body["leader"] == service.primary_node().node_id


class TestOffloadSerialization:
    def test_mixed_type_keys_serialize_injectively(self):
        """Regression: sorting offload rows by str(key) made 1 and "1"
        collide — their relative order depended on dict insertion order, so
        equal indexes could offload to different bytes. The tagged key form
        (json_safe_key) is injective, so bytes are a pure function of
        content."""
        txid = TxID(1, 1)

        def build(keys):
            index = KeyWriteIndex("kwi", "records")
            for key in keys:
                ws = _ws(key, "v")
                index.handle_committed(txid, ws)
            return index

        forward = build([1, "1", 2, "2", (3,), b"3"])
        backward = build([b"3", (3,), "2", 2, "1", 1])
        assert forward.serialize() == backward.serialize()

        # Both keys survive a roundtrip as distinct entries.
        restored = KeyWriteIndex("kwi", "records")
        restored.restore(forward.serialize())
        assert restored.txids_for_key(1) == [txid]
        assert restored.txids_for_key("1") == [txid]
        assert restored.txids_for_key((3,)) == [txid]

    def test_serialize_restore_roundtrip_stable(self):
        index = KeyWriteIndex("kwi", "records")
        for i, key in enumerate([0, "0", 10, "z", (1, 2)]):
            index.handle_committed(TxID(1, i + 1), _ws(key, i))
        blob = index.serialize()
        restored = KeyWriteIndex("kwi", "records")
        restored.restore(blob)
        assert restored.serialize() == blob
