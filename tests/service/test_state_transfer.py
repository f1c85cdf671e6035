"""Incremental state transfer: chunked dedup joins, resume, fallback, and
the chunked-vs-full-replay differential across seeds."""

import dataclasses

import pytest

from repro.consensus.messages import AppendEntries, AppendEntriesResponse
from repro.errors import KVError
from repro.ledger import statetransfer
from repro.net.channels import SealedMessage
from repro.node import join, snapshots, wire
from repro.node.config import NodeConfig
from repro.node.node import CCFNode
from repro.obs.metrics import RUNTIME_STATS
from repro.perf.costmodel import state_transfer_cost
from repro.service.service import ServiceSetup, bootstrap_service
from repro.sim.trace import TraceRecorder

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


def spy_chunk_traffic(service, drop=lambda payload, sent: False):
    """Record every StateChunkRequest/Response with its extra delay; a
    message for which ``drop(payload, sent)`` holds is recorded but lost."""
    sent = []
    original_send = service.network.send

    def spying_send(src, dst, payload, extra_delay=0.0, ordered=False):
        if isinstance(payload, (wire.StateChunkRequest, wire.StateChunkResponse)):
            sent.append((payload, extra_delay))
            if drop(payload, sent):
                return
        original_send(src, dst, payload, extra_delay, ordered)

    service.network.send = spying_send
    return sent


def requests_in(sent):
    return [p for p, _ in sent if isinstance(p, wire.StateChunkRequest)]


def responses_in(sent):
    return [(p, delay) for p, delay in sent if isinstance(p, wire.StateChunkResponse)]


def catch_up(service, joiner):
    primary = service.primary_node()
    service.run_until(
        lambda: joiner.consensus is not None
        and joiner.ledger.last_seqno == primary.ledger.last_seqno,
        timeout=5.0,
    )
    assert joiner.ledger.root() == primary.ledger.root()
    version = primary.ledger.last_seqno
    assert joiner.store.serialize_at(version) == primary.store.serialize_at(version)


class TestChunkBurst:
    def test_a_cold_join_asks_for_every_chunk_in_one_request(self):
        """One request; the answer is back-to-back responses of
        JOIN_CHUNK_BATCH chunks, the k-th charged the bytes of 1..k."""
        service = make_service(n_nodes=3, node_config=chunked_config())
        fill(service, 60)
        sent = spy_chunk_traffic(service)
        needed = statetransfer.manifest_chunk_ids(
            service.primary_node().snapshots.latest.metadata
        )
        joiner = make_joiner(service, "joiner-burst")
        service.run_until(lambda: joiner.consensus is not None, timeout=5.0)
        (request,) = requests_in(sent)
        assert list(request.chunk_ids) == needed
        responses = responses_in(sent)
        assert len(responses) == -(-len(needed) // join.JOIN_CHUNK_BATCH) > 1
        shipped = 0
        for response, delay in responses:
            assert 0 < len(response.chunks) <= join.JOIN_CHUNK_BATCH
            shipped += sum(len(blob) for _, blob in response.chunks)
            assert delay == state_transfer_cost(shipped)
        assert [cid for r, _ in responses for cid, _ in r.chunks] == needed
        catch_up(service, joiner)

    def test_a_lost_response_is_fetched_again_alone(self):
        """Chunks held or still in flight are never asked for twice; the
        retry timer re-requests exactly what a lost response carried."""
        service = make_service(n_nodes=3, node_config=chunked_config())
        fill(service, 60)
        lost = []

        def drop_second_response(payload, sent):
            if isinstance(payload, wire.StateChunkResponse) and len(responses_in(sent)) == 2:
                lost.extend(cid for cid, _ in payload.chunks)
                return True
            return False

        sent = spy_chunk_traffic(service, drop_second_response)
        joiner = make_joiner(service, "joiner-lossy")
        service.run_until(lambda: joiner.consensus is not None, timeout=5.0)
        first, *later = requests_in(sent)
        assert lost and set(lost) < set(first.chunk_ids)
        assert [list(r.chunk_ids) for r in later] == [lost]
        catch_up(service, joiner)

    def test_an_old_format_manifest_is_rejected(self, monkeypatch):
        """A manifest that lists every leaf hash and txid (the previous
        format) is refused with a typed error, before any chunk moves."""
        build = statetransfer.build_chunked_snapshot

        def build_v1(store, version, secret, ledger_metadata, **kwargs):
            built = build(store, version, secret, ledger_metadata, **kwargs)
            metadata = dict(built.metadata, format="chunked-v1", txids=[], leaf_hashes=[])
            del metadata["view_starts"], metadata["merkle_frontier"]
            return dataclasses.replace(built, metadata=metadata)

        monkeypatch.setattr(statetransfer, "build_chunked_snapshot", build_v1)
        service = make_service(n_nodes=3, node_config=chunked_config())
        fill(service, 60)
        assert service.primary_node().snapshots.latest.metadata["format"] == "chunked-v1"
        sent = spy_chunk_traffic(service)
        make_joiner(service, "joiner-v1")
        with pytest.raises(KVError, match="chunked-v2"):
            service.run(0.5)
        assert not requests_in(sent)


class TestJoinerConsensusState:
    def test_joiner_view_history_matches_the_primary(self):
        """After two elections, a snapshot and a join, the joiner reports
        the views of the whole ledger, not just those after its base."""
        service = make_service(n_nodes=5, node_config=chunked_config())
        fill(service, 5)
        for _ in range(2):
            service.kill_node(service.primary_node().node_id)
            service.run_until(lambda: service.primary_node() is not None, timeout=10.0)
            fill(service, 30)
        primary = service.primary_node()
        assert primary.snapshots.latest is not None
        joiner = make_joiner(service, "joiner-views")
        catch_up(service, joiner)
        assert joiner.ledger.base_seqno > 0
        starts = primary.consensus.view_history.starts()
        assert len(starts) >= 3
        assert joiner.consensus.view_history.starts() == starts

    def test_frames_before_install_are_counted_and_the_joiner_converges(self, monkeypatch):
        """Chunks slow enough (1 µs per byte) that the suffix the primary
        streams at the chunk request lands long before install: the joiner
        counts those frames, holds them, and applies them at install, so it
        is level with the primary within one round trip of installing."""
        monkeypatch.setattr(snapshots, "state_transfer_cost", lambda n: n * 1e-6)
        service = make_service(n_nodes=3, node_config=chunked_config())
        fill(service, 60)
        RUNTIME_STATS.reset()
        joiner = make_joiner(service, "joiner-late")
        service.run_until(lambda: joiner.consensus is not None, timeout=5.0)
        assert 0 < RUNTIME_STATS.get("consensus.frames_before_install") <= 2
        link = service.setup.link
        round_trip = 2 * (link.base_latency + link.jitter)
        primary = service.primary_node()
        service.run_until(
            lambda: joiner.ledger.last_seqno == primary.ledger.last_seqno,
            timeout=round_trip,
        )
        catch_up(service, joiner)


def spy_appends(primary, joiner):
    """Record the entry count of every AppendEntries ``primary`` sends to
    ``joiner``, with whether the joiner had installed by then."""
    sent = []
    original = primary.send_consensus_message

    def spying(to, message):
        if to == joiner.node_id and isinstance(message, AppendEntries):
            sent.append((len(message.entries), joiner.consensus is not None))
        original(to, message)

    primary.send_consensus_message = spying
    return sent


def spy_failure_acks(joiner):
    failures = []
    original = joiner.send_consensus_message

    def spying(to, message):
        if isinstance(message, AppendEntriesResponse) and not message.success:
            failures.append(message)
        original(to, message)

    joiner.send_consensus_message = spying
    return failures


def spy_held_at_install(joiner):
    """Record the held payloads each install dispatches."""
    installs = []
    original = joiner.join._start_consensus

    def wrapper(message, store, ledger, base_seqno, held=()):
        installs.append(list(held))
        original(message, store, ledger, base_seqno, held)

    joiner.join._start_consensus = wrapper
    return installs


class TestSuffixBehindChunks:
    """The primary streams a learner's ledger suffix at its chunk request;
    the joiner holds it until install."""

    @pytest.mark.parametrize("duplicate_request", [False, True])
    def test_the_suffix_is_sent_once(self, duplicate_request):
        """Every suffix entry reaches the joiner in exactly one
        AppendEntries, before install, and none is rejected. A duplicated
        StateChunkRequest (a retry after a lost response) is served again
        but sends no second burst: ``next_index`` is not rewound."""
        service = make_service(n_nodes=3, node_config=chunked_config())
        fill(service, 60)
        primary = service.primary_node()
        sent = spy_chunk_traffic(service)
        if duplicate_request:
            original_send = service.network.send

            def duplicating_send(src, dst, payload, extra_delay=0.0, ordered=False):
                original_send(src, dst, payload, extra_delay, ordered)
                if isinstance(payload, wire.StateChunkRequest):
                    original_send(src, dst, payload, extra_delay, ordered)

            service.network.send = duplicating_send
        joiner = make_joiner(service, "joiner-once")
        appends = spy_appends(primary, joiner)
        failures = spy_failure_acks(joiner)
        catch_up(service, joiner)
        service.run(0.1)  # heartbeats, and any late duplicate
        base = joiner.ledger.base_seqno
        assert sum(n for n, _ in appends) == primary.ledger.last_seqno - base
        # The suffix went out before install, not at the next push.
        assert sum(n for n, installed in appends if not installed) > 0
        assert not failures
        served = [r for r, _ in responses_in(sent)]
        expected = -(-len(requests_in(sent)[0].chunk_ids) // join.JOIN_CHUNK_BATCH)
        assert len(served) == (2 if duplicate_request else 1) * expected

    def test_a_frame_is_authenticated_before_it_is_held(self, monkeypatch):
        """Mid-transfer, a frame with a flipped byte is rejected and a
        replay of a held frame is dropped; neither is held or dispatched at
        install."""
        monkeypatch.setattr(snapshots, "state_transfer_cost", lambda n: n * 1e-6)
        service = make_service(n_nodes=3, node_config=chunked_config())
        fill(service, 60)
        frames = []
        original_send = service.network.send
        joiner = make_joiner(service, "joiner-forged")

        def spying_send(src, dst, payload, extra_delay=0.0, ordered=False):
            if dst == joiner.node_id and isinstance(payload, SealedMessage):
                frames.append(payload)
            original_send(src, dst, payload, extra_delay, ordered)

        service.network.send = spying_send
        held_calls = []
        original_hold = joiner.join.hold

        def recording_hold(payloads):
            held_calls.append(list(payloads))
            original_hold(payloads)

        joiner.join.hold = recording_hold
        installs = spy_held_at_install(joiner)
        service.run_until(
            lambda: joiner.join._transfer is not None and joiner.join._transfer.held,
            timeout=1.0,
        )
        transfer = joiner.join._transfer
        held = list(transfer.held)
        first = frames[0]
        counts = {
            name: RUNTIME_STATS.get(name)
            for name in (
                "channel.frames.rejected",
                "channel.frames.replay_dropped",
                "consensus.frames_before_install",
            )
        }
        # A flipped byte, under a counter the joiner has not seen yet (so
        # the tag is what rejects it), and a re-delivery of a held frame.
        flipped = bytes([first.box[0] ^ 1]) + first.box[1:]
        joiner._on_network_message(
            first.sender,
            SealedMessage(first.sender, frames[-1].counter + 1, flipped),
        )
        joiner._on_network_message(first.sender, first)
        assert RUNTIME_STATS.get("channel.frames.rejected") == counts["channel.frames.rejected"] + 1
        assert (
            RUNTIME_STATS.get("channel.frames.replay_dropped")
            == counts["channel.frames.replay_dropped"] + 1
        )
        assert (
            RUNTIME_STATS.get("consensus.frames_before_install")
            == counts["consensus.frames_before_install"]
        )
        assert transfer.held == held
        catch_up(service, joiner)
        # Install dispatched exactly what authentic frames handed to hold.
        assert installs == [[p for call in held_calls for p in call]]

    def test_a_stalled_transfer_drops_what_it_held_and_the_retry_converges(self):
        """The retry timer abandons a transfer whose chunks stopped
        coming; the frames it held go with it, nothing from them is
        dispatched at the retried join's install, and that join converges."""
        service = make_service(n_nodes=3, node_config=chunked_config())
        fill(service, 60)
        stalled = [True]
        spy_chunk_traffic(
            service,
            drop=lambda payload, _sent: (
                stalled[0] and isinstance(payload, wire.StateChunkResponse)
            ),
        )
        joiner = make_joiner(service, "joiner-stalled")
        installs = spy_held_at_install(joiner)
        service.run_until(
            lambda: joiner.join._transfer is not None and joiner.join._transfer.held,
            timeout=1.0,
        )
        abandoned = joiner.join._transfer
        service.run_until(lambda: joiner.join._transfer is not abandoned, timeout=3.0)
        assert joiner.join._transfer is None
        assert joiner.consensus is None
        stalled[0] = False
        catch_up(service, joiner)
        (dispatched,) = installs
        assert dispatched
        assert not any(raw is old for raw in dispatched for old in abandoned.held)


def _traced_join(seed):
    """One snapshot join under the trace recorder: its digest, its event
    count, and how many frames reached the joiner before install."""
    tracer = TraceRecorder()
    service = bootstrap_service(
        ServiceSetup(n_nodes=3, node_config=chunked_config(), seed=seed), tracer=tracer
    )
    fill(service, 60)
    RUNTIME_STATS.reset()
    joiner = make_joiner(service, "joiner-traced")
    catch_up(service, joiner)
    service.run(0.1)
    return tracer.digest, tracer.event_count, RUNTIME_STATS.get(
        "consensus.frames_before_install"
    )


def test_a_snapshot_join_replays_to_the_same_trace_digest():
    """A snapshot join, held frames included, is deterministic: two runs
    of one seed fold the same events and RNG draws."""
    first = _traced_join(7)
    assert first[2] > 0  # the suffix reached the joiner before install
    assert _traced_join(7) == first


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
