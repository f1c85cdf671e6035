"""Incremental state transfer: chunked dedup joins, resume, fallback, and
the chunked-vs-full-replay differential across seeds."""

import dataclasses

import pytest

from repro.node import join, snapshots
from repro.node.config import NodeConfig
from repro.node.node import CCFNode

from tests.node.conftest import make_service


@pytest.fixture(autouse=True)
def small_chunks(monkeypatch):
    """512-byte chunks fetched two per round, so a small store spans many
    chunks and rounds."""
    monkeypatch.setattr(snapshots, "SNAPSHOT_CHUNK_BYTES", 512)
    monkeypatch.setattr(join, "JOIN_CHUNK_BATCH", 2)


def chunked_config():
    return NodeConfig(signature_interval=10, snapshot_interval=20)


def fill(service, n, start=0):
    user = service.any_user_client()
    primary = service.primary_node()
    for i in range(start, start + n):
        user.call(primary.node_id, "/app/write_message", {"id": i, "msg": f"m{i}"})
    service.run(0.3)


def make_joiner(service, node_id, storage=None):
    primary = service.primary_node()
    joiner = CCFNode(
        node_id=node_id,
        scheduler=service.scheduler,
        network=service.network,
        hardware=service.hardware,
        app=service._app_factory(),
        config=service.setup.node_config,
        code_id=service.code_id,
    )
    if storage is not None:
        joiner.storage = storage
    joiner.request_join(primary.node_id, primary.service_certificate)
    return joiner


def spy_install(joiner, captured):
    """Record the transfer plan's dedup accounting at install time."""
    original = joiner.join._complete_install

    def wrapper():
        transfer = joiner.join._transfer
        captured["cached"] = transfer.cached
        captured["fetched"] = transfer.fetched
        captured["chunks"] = len(transfer.have)
        original()

    joiner.join._complete_install = wrapper


class TestChunkedJoin:
    def test_cold_join_fetches_every_chunk(self):
        service = make_service(n_nodes=3, node_config=chunked_config())
        fill(service, 60)
        stats = {}
        joiner = make_joiner(service, "joiner-cold")
        spy_install(joiner, stats)
        service.run_until(lambda: joiner.consensus is not None, timeout=5.0)
        assert stats["cached"] == 0
        assert stats["fetched"] == stats["chunks"] > 1
        # The joined learner catches up and holds the snapshot state.
        service.run(0.5)
        assert joiner.store.get("records", 55) == "m55"
        assert joiner.ledger.base_seqno > 0

    def test_warm_join_skips_cached_chunks(self):
        """A node whose disk already caches the snapshot's chunks (a prior
        join) fetches nothing: the transfer is pure dedup."""
        service = make_service(n_nodes=3, node_config=chunked_config())
        fill(service, 60)
        first = make_joiner(service, "joiner-a")
        service.run_until(lambda: first.consensus is not None, timeout=5.0)
        # No new snapshot since: the manifest is unchanged, and joiner-a's
        # streaming install left every chunk in its content-addressed cache.
        stats = {}
        second = make_joiner(service, "joiner-b", storage=first.storage.clone())
        spy_install(second, stats)
        service.run_until(lambda: second.consensus is not None, timeout=5.0)
        assert stats["fetched"] == 0
        assert stats["cached"] == stats["chunks"] > 1

    def test_crash_mid_transfer_resumes_without_refetch(self, monkeypatch):
        """Streaming install is crash-consistent: chunks received before
        the crash are on disk and are not fetched again after re-join."""
        monkeypatch.setattr(join, "JOIN_CHUNK_BATCH", 1)
        service = make_service(n_nodes=3, node_config=chunked_config())
        fill(service, 60)
        victim = make_joiner(service, "joiner-crash")
        service.run_until(
            lambda: (
                victim.join._transfer is not None
                and victim.join._transfer.fetched >= 3
            ),
            timeout=5.0,
        )
        fetched_before_crash = victim.join._transfer.fetched
        victim.crash()
        # The salvaged disk (chunk cache included) goes into a fresh node.
        stats = {}
        retry = make_joiner(service, "joiner-resume", storage=victim.storage.clone())
        spy_install(retry, stats)
        service.run_until(lambda: retry.consensus is not None, timeout=5.0)
        assert stats["cached"] >= fetched_before_crash
        assert stats["fetched"] == stats["chunks"] - stats["cached"]
        service.run(0.5)
        assert retry.store.get("records", 10) == "m10"

    def test_missing_chunks_fall_back_to_retry(self):
        """A serving node that lost part of its snapshot reports ``missing``;
        the joiner abandons the transfer and the retry timer completes the
        join against the next full snapshot instead of stalling."""
        service = make_service(n_nodes=3, node_config=chunked_config())
        fill(service, 60)
        primary = service.primary_node()
        package = primary.snapshots.latest
        victim = next(iter(package.chunks))
        chunks = dict(package.chunks)
        chunks.pop(victim)
        primary.snapshots.latest = dataclasses.replace(package, chunks=chunks)
        primary.storage.delete(f"state_{victim}.chunk")
        joiner = make_joiner(service, "joiner-fallback")
        service.run(0.5)
        assert joiner.consensus is None  # transfer abandoned, not stalled
        assert joiner.join._transfer is None
        # New traffic produces the next (complete) snapshot; the join retry
        # picks it up and completes.
        fill(service, 40, start=500)
        service.run_until(lambda: joiner.consensus is not None, timeout=10.0)
        service.run(0.5)
        assert joiner.store.get("records", 30) == "m30"


def _joined_run(seed, mode):
    """One scenario: write, join a node mid-run, write more; return every
    byte-comparable artifact. ``mode`` selects how the joiner gets state:
    chunked snapshot transfer, or full ledger replay (no snapshot offered
    at all). Replay mode still *produces* snapshots, so the ledger's
    evidence entries stay comparable — only the transfer mechanism differs."""
    service = make_service(n_nodes=3, node_config=chunked_config(), seed=seed)
    fill(service, 50)
    primary = service.primary_node()
    if mode == "replay":
        # Withhold the snapshot: the joiner must replay the whole ledger
        # through consensus catch-up. (The snapshot package returns at the
        # next production; evidence entries are unaffected.)
        primary.snapshots.latest = None
    node = service.add_node()
    fill(service, 30, start=100)
    service.run(1.0)
    primary = service.primary_node()
    user = service.any_user_client()
    responses = []
    for i in (0, 25, 110, 129):
        response = user.call(node.node_id, "/app/read_message", {"id": i})
        responses.append((response.ok, response.body))
    commit = primary.consensus.commit_seqno
    return {
        "ledger": b"".join(e.encode() for e in primary.ledger.entries()),
        "kv": primary.store.serialize_at(commit),
        "root": bytes(primary.ledger.root()),
        "responses": responses,
        "joiner_records": dict(node.store.items("records")),
    }


class TestJoinDifferential:
    """The tentpole's acceptance differential: a node joining via the
    chunked-dedup snapshot path must leave the service byte-identical to
    the same run where it joined by full ledger replay."""

    @pytest.mark.parametrize("seed", range(10))
    def test_chunked_vs_full_replay_byte_identical(self, seed):
        chunked = _joined_run(3000 + seed, "chunked")
        replay = _joined_run(3000 + seed, "replay")
        assert chunked["root"] == replay["root"]
        assert chunked["ledger"] == replay["ledger"]
        assert chunked["kv"] == replay["kv"]
        assert chunked["responses"] == replay["responses"]
        assert chunked["joiner_records"] == replay["joiner_records"]
