"""Incremental state transfer: chunked dedup joins, resume, fallback, and
the chunked-vs-full-replay differential across seeds."""

import dataclasses
from collections import Counter

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
from repro.storage.host_storage import HostStorage

from tests.node.conftest import make_service


@pytest.fixture(autouse=True)
def small_chunks(monkeypatch):
    """512-byte chunks pushed two per response, so a small store spans many
    chunks and responses."""
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
        sent = spy_chunk_traffic(service)
        second = make_joiner(service, "joiner-b", storage=first.storage.clone())
        spy_install(second, stats)
        service.run_until(lambda: second.consensus is not None, timeout=5.0)
        assert stats["fetched"] == 0
        assert stats["cached"] == stats["chunks"] > 1
        # Its request listed every chunk, so the primary pushed none.
        (request,) = requests_in(sent)
        assert len(request.held_chunks) == stats["chunks"]
        assert not responses_in(sent)

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
        sent = spy_chunk_traffic(service)
        retry = make_joiner(service, "joiner-resume", storage=victim.storage.clone())
        spy_install(retry, stats)
        service.run_until(lambda: retry.consensus is not None, timeout=5.0)
        assert stats["cached"] >= fetched_before_crash
        assert stats["fetched"] == stats["chunks"] - stats["cached"]
        # Its request listed the cache, and the push left the cache out.
        (request,) = requests_in(sent)
        assert len(request.held_chunks) == stats["cached"]
        pushed = [cid for r, _ in responses_in(sent) for cid, _ in r.chunks]
        assert len(pushed) == stats["fetched"]
        assert not set(pushed) & set(request.held_chunks)
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


JOIN_TRAFFIC = (wire.JoinRequest, wire.JoinResponse, wire.StateChunkResponse)


def spy_chunk_traffic(service, drop=lambda payload, sent: False):
    """Record every join message (request, response, chunk response) with
    its extra delay, and check that the primary's answers travel ordered;
    a message for which ``drop(payload, sent)`` holds is recorded but
    lost."""
    sent = []
    original_send = service.network.send

    def spying_send(src, dst, payload, extra_delay=0.0, ordered=False):
        if isinstance(payload, JOIN_TRAFFIC):
            assert ordered == (not isinstance(payload, wire.JoinRequest))
            sent.append((payload, extra_delay))
            if drop(payload, sent):
                return
        original_send(src, dst, payload, extra_delay, ordered)

    service.network.send = spying_send
    return sent


def requests_in(sent):
    return [p for p, _ in sent if isinstance(p, wire.JoinRequest)]


def responses_in(sent):
    return [(p, delay) for p, delay in sent if isinstance(p, wire.StateChunkResponse)]


def spike_first_chunk(service, joiner_id, spike=0.005):
    """Hold the first chunk response to ``joiner_id`` back by ``spike``
    after the stream's ordering, as a chaos delay spike does, so the rest
    of the push and the ledger suffix overtake it."""
    network = service.network
    original_send = network.send
    original_time = network._delivery_time
    spiked = []

    def spiking_send(src, dst, payload, extra_delay=0.0, ordered=False):
        if dst == joiner_id and isinstance(payload, wire.StateChunkResponse) and not spiked:
            spiked.append(payload)
            network._delivery_time = lambda *args: original_time(*args) + spike
            try:
                original_send(src, dst, payload, extra_delay, ordered)
            finally:
                del network._delivery_time
            return
        original_send(src, dst, payload, extra_delay, ordered)

    network.send = spiking_send


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
    def test_a_cold_join_gets_every_chunk_in_one_burst(self):
        """One request listing no chunk; the answer is the JoinResponse
        charged the manifest's bytes, then back-to-back responses of
        JOIN_CHUNK_BATCH chunks, the k-th charged the manifest's bytes plus
        those of 1..k: one link."""
        service = make_service(n_nodes=3, node_config=chunked_config())
        fill(service, 60)
        sent = spy_chunk_traffic(service)
        snapshot = service.primary_node().snapshots.latest
        needed = statetransfer.manifest_chunk_ids(snapshot.metadata)
        joiner = make_joiner(service, "joiner-burst")
        service.run_until(lambda: joiner.consensus is not None, timeout=5.0)
        (request,) = requests_in(sent)
        assert request.held_chunks == ()
        assert isinstance(sent[1][0], wire.JoinResponse)
        shipped = len(snapshot.manifest)
        assert sent[1][1] == state_transfer_cost(shipped)
        responses = responses_in(sent)
        assert [p for p, _ in sent[2:]] == [p for p, _ in responses]
        assert len(responses) == -(-len(needed) // join.JOIN_CHUNK_BATCH) > 1
        for response, delay in responses:
            assert 0 < len(response.chunks) <= join.JOIN_CHUNK_BATCH
            shipped += sum(len(blob) for _, blob in response.chunks)
            assert delay == state_transfer_cost(shipped)
        assert [cid for r, _ in responses for cid, _ in r.chunks] == needed
        catch_up(service, joiner)

    def test_a_lost_response_is_fetched_again_alone(self):
        """No chunk is pushed twice: the retry timer re-sends the join
        request listing every chunk cached by then, and the primary pushes
        again exactly what the lost response carried."""
        service = make_service(n_nodes=3, node_config=chunked_config())
        fill(service, 60)
        lost = []

        def drop_second_response(payload, sent):
            if isinstance(payload, wire.StateChunkResponse) and len(responses_in(sent)) == 2:
                lost.extend(cid for cid, _ in payload.chunks)
                return True
            return False

        sent = spy_chunk_traffic(service, drop_second_response)
        needed = statetransfer.manifest_chunk_ids(
            service.primary_node().snapshots.latest.metadata
        )
        joiner = make_joiner(service, "joiner-lossy")
        service.run_until(lambda: joiner.consensus is not None, timeout=5.0)
        first, retry = requests_in(sent)
        assert first.held_chunks == ()
        assert lost and set(retry.held_chunks) == set(needed) - set(lost)
        index = next(i for i, (p, _) in enumerate(sent) if p is retry)
        repushed = [
            cid
            for p, _ in sent[index:]
            if isinstance(p, wire.StateChunkResponse)
            for cid, _ in p.chunks
        ]
        assert repushed == lost
        catch_up(service, joiner)

    def test_an_old_format_manifest_is_rejected(self, monkeypatch):
        """A manifest that lists every leaf hash and txid (the previous
        format) is refused with a typed error, before any chunk is stored
        or installed: the chunks pushed behind it are dropped."""
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
        joiner = make_joiner(service, "joiner-v1")
        with pytest.raises(KVError, match="chunked-v2"):
            service.run(0.5)
        service.run(0.1)  # deliver the chunks pushed behind the response
        assert responses_in(sent)
        assert joiner.join._transfer is None
        assert not joiner.storage.state_chunk_ids()
        assert joiner.consensus is None


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

    def test_frames_before_install_are_counted_and_the_joiner_converges(self):
        """A delay spike on the first chunk lets the rest of the push and
        the ledger suffix overtake it, so suffix frames land before
        install: the joiner counts those frames, holds them, and applies
        them at install, so it is level with the primary within one round
        trip of installing."""
        service = make_service(n_nodes=3, node_config=chunked_config())
        fill(service, 60)
        RUNTIME_STATS.reset()
        joiner = make_joiner(service, "joiner-late")
        spike_first_chunk(service, joiner.node_id)
        installs = spy_held_at_install(joiner)
        service.run_until(lambda: joiner.consensus is not None, timeout=5.0)
        assert 0 < RUNTIME_STATS.get("consensus.frames_before_install") <= 2
        (dispatched,) = installs
        assert dispatched
        link = service.setup.link
        round_trip = 2 * (link.base_latency + link.jitter)
        primary = service.primary_node()
        service.run_until(
            lambda: joiner.ledger.last_seqno == primary.ledger.last_seqno,
            timeout=round_trip,
        )
        catch_up(service, joiner)


def spy_appends(primary, joiner):
    """Record the entry seqnos of every AppendEntries ``primary`` sends to
    ``joiner``, with whether the joiner had installed by then."""
    sent = []
    original = primary.send_consensus_message

    def spying(to, message):
        if to == joiner.node_id and isinstance(message, AppendEntries):
            seqnos = [entry.txid.seqno for entry in message.entries]
            sent.append((seqnos, joiner.consensus is not None))
        original(to, message)

    primary.send_consensus_message = spying
    return sent


def spy_applied(joiner):
    """Record the seqno of every replicated entry ``joiner`` applies."""
    applied = []
    original = joiner.apply_replicated_entry

    def spying(entry):
        applied.append(entry.txid.seqno)
        return original(entry)

    joiner.apply_replicated_entry = spying
    return applied


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
    """The primary sends a learner its ledger suffix at admission, behind
    the chunks on the same ordered stream; the joiner holds what overtakes
    a chunk until install."""

    @pytest.mark.parametrize("duplicate_request", [False, True])
    def test_the_suffix_is_sent_once(self, duplicate_request):
        """Every suffix entry reaches the joiner in one AppendEntries per
        admission, sent before install, and none is rejected. A duplicated
        JoinRequest is admitted twice, so it draws a second burst and a
        second suffix, yet the joiner converges with no failure ack and
        applies each entry once."""
        service = make_service(n_nodes=3, node_config=chunked_config())
        fill(service, 60)
        primary = service.primary_node()
        sent = spy_chunk_traffic(service)
        if duplicate_request:
            original_send = service.network.send

            def duplicating_send(src, dst, payload, extra_delay=0.0, ordered=False):
                original_send(src, dst, payload, extra_delay, ordered)
                if isinstance(payload, wire.JoinRequest):
                    original_send(src, dst, payload, extra_delay, ordered)

            service.network.send = duplicating_send
        joiner = make_joiner(service, "joiner-once")
        appends = spy_appends(primary, joiner)
        failures = spy_failure_acks(joiner)
        applied = spy_applied(joiner)
        catch_up(service, joiner)
        service.run(0.1)  # heartbeats, and any late duplicate
        admissions = 2 if duplicate_request else 1
        base = joiner.ledger.base_seqno
        sends = Counter(seqno for seqnos, _ in appends for seqno in seqnos)
        assert sorted(sends) == list(range(base + 1, primary.ledger.last_seqno + 1))
        assert max(sends.values()) == admissions
        # The suffix went out at admission, not at the next push.
        assert any(seqnos for seqnos, installed in appends if not installed)
        assert not failures
        assert applied == list(range(base + 1, primary.ledger.last_seqno + 1))
        served = [r for r, _ in responses_in(sent)]
        needed = statetransfer.manifest_chunk_ids(primary.snapshots.latest.metadata)
        expected = -(-len(needed) // join.JOIN_CHUNK_BATCH)
        assert len(served) == admissions * expected

    def test_a_frame_is_authenticated_before_it_is_held(self):
        """Mid-transfer, a frame with a flipped byte is rejected and a
        replay of a held frame is dropped; neither is held or dispatched at
        install."""
        service = make_service(n_nodes=3, node_config=chunked_config())
        fill(service, 60)
        frames = []
        joiner = make_joiner(service, "joiner-forged")
        spike_first_chunk(service, joiner.node_id)
        original_send = service.network.send

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
        # The retried join's suffix overtakes its spiked first chunk, so
        # its install dispatches held frames of its own.
        spike_first_chunk(service, joiner.node_id)
        catch_up(service, joiner)
        (dispatched,) = installs
        assert dispatched
        assert not any(raw is old for raw in dispatched for old in abandoned.held)


class TestPushIsUntrusted:
    """``JoinRequest.held_chunks`` and the pushed chunks cross the host: they
    decide what the primary sends, never what the joiner installs."""

    def test_a_rewritten_held_set_never_installs_a_missing_chunk(self):
        """A host that rewrites the request to claim every chunk starves
        the joiner of its push. The joiner does not install without every
        chunk verified, and the join completes once the rewrite stops."""
        service = make_service(n_nodes=3, node_config=chunked_config())
        fill(service, 60)
        needed = statetransfer.manifest_chunk_ids(
            service.primary_node().snapshots.latest.metadata
        )
        sent = spy_chunk_traffic(service)
        rewriting = [True]
        original_send = service.network.send

        def rewriting_send(src, dst, payload, extra_delay=0.0, ordered=False):
            if rewriting[0] and isinstance(payload, wire.JoinRequest):
                payload = dataclasses.replace(payload, held_chunks=tuple(needed))
            original_send(src, dst, payload, extra_delay, ordered)

        service.network.send = rewriting_send
        joiner = make_joiner(service, "joiner-starved")
        installed = []
        original_install = joiner.join._complete_install

        def checked_install():
            have = joiner.join._transfer.have
            assert sorted(have) == sorted(needed)
            for chunk_id, blob in have.items():
                statetransfer.verify_chunk_blob(chunk_id, blob)
            installed.append(len(have))
            original_install()

        joiner.join._complete_install = checked_install
        service.run(1.5)
        assert joiner.consensus is None and not installed
        assert not responses_in(sent)
        rewriting[0] = False
        catch_up(service, joiner)
        assert installed == [len(needed)]
        assert requests_in(sent)[-1].held_chunks == ()

    def test_a_chunk_failing_its_address_is_pushed_again(self):
        """A chunk the host corrupts in flight is not stored. The joiner
        re-sends its request at once, listing the chunks it has verified,
        and installs from the next push well before the retry timer."""
        service = make_service(n_nodes=3, node_config=chunked_config())
        fill(service, 60)
        corrupted = []
        sent = spy_chunk_traffic(service)
        original_send = service.network.send

        def corrupting_send(src, dst, payload, extra_delay=0.0, ordered=False):
            if isinstance(payload, wire.StateChunkResponse) and not corrupted:
                (chunk_id, blob), *rest = payload.chunks
                corrupted.append(chunk_id)
                bad = (chunk_id, bytes([blob[0] ^ 1]) + blob[1:])
                payload = dataclasses.replace(payload, chunks=(bad, *rest))
            original_send(src, dst, payload, extra_delay, ordered)

        service.network.send = corrupting_send
        joiner = make_joiner(service, "joiner-corrupted")
        service.run_until(
            lambda: joiner.consensus is not None, timeout=join.JOIN_RETRY_INTERVAL / 2
        )
        first, retry = requests_in(sent)
        assert first.held_chunks == ()
        assert retry.held_chunks and corrupted[0] not in retry.held_chunks
        assert corrupted[0] in joiner.storage.state_chunk_ids()
        catch_up(service, joiner)


def test_no_chunk_is_delivered_before_its_join_response(monkeypatch):
    """The pushed chunk travels ordered behind its JoinResponse. Pushing
    one 512-byte chunk adds about 1 µs of wire time to the response's,
    far less than the link's 50 µs jitter, so only the ordering keeps it
    behind: over seeds 0-19 the response is always delivered first."""
    for seed in range(20):
        service = make_service(n_nodes=3, node_config=chunked_config(), seed=seed)
        fill(service, 25)
        primary = service.primary_node()
        chunk_ids = statetransfer.manifest_chunk_ids(primary.snapshots.latest.metadata)
        storage = HostStorage()
        for chunk_id in chunk_ids[1:]:
            storage.write_state_chunk(chunk_id, primary.storage.read_state_chunk(chunk_id))
        joiner = make_joiner(service, "joiner-ordered", storage=storage)
        delivered = []
        for kind in (wire.JoinResponse, wire.StateChunkResponse):
            handler = joiner._handlers[kind]
            joiner._handlers[kind] = (
                lambda src, message, handler=handler: (
                    delivered.append(type(message)), handler(src, message)
                )
            )
        service.run_until(lambda: len(delivered) == 2, timeout=0.1)
        assert delivered == [wire.JoinResponse, wire.StateChunkResponse], seed
        assert joiner.consensus is not None


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
    spike_first_chunk(service, joiner.node_id)
    catch_up(service, joiner)
    service.run(0.1)
    return tracer.digest, tracer.event_count, RUNTIME_STATS.get(
        "consensus.frames_before_install"
    )


def test_a_snapshot_join_replays_to_the_same_trace_digest():
    """A snapshot join, held frames included, is deterministic: two runs
    of one seed fold the same events and RNG draws."""
    first = _traced_join(7)
    assert first[2] > 0  # the suffix overtook the spiked chunk
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
