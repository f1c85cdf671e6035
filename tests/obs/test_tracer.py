"""Acceptance tests for the span tracer (repro.obs.collector).

The contract under test is the determinism discipline itself:

- equal seeds produce byte-identical JSONL exports;
- attaching (or detaching mid-run) a collector never changes the run it
  observes — the untraced run is the ground truth;
- with no collector attached the hooks are no-ops that allocate nothing;
- a traced run reconstructs the full causal span tree for every committed
  write, and its consensus/ledger events conform to the abstract model.
"""

from __future__ import annotations

import pytest

from repro.app.logging_app import build_logging_app
from repro.node.config import NodeConfig
from repro.obs import ObsCollector, build_tree, check_trace, load_jsonl, profile_spans
from repro.service.service import CCFService, ServiceSetup

WRITES = 25


def _build_service(seed: int) -> CCFService:
    setup = ServiceSetup(
        n_nodes=3,
        node_config=NodeConfig(signature_interval=10, signature_flush_time=0.01),
        app_factory=build_logging_app,
        seed=seed,
    )
    return CCFService(setup)


def _drive_writes(service: CCFService, n: int = WRITES) -> None:
    user = service.users[0]
    credentials = {"certificate": user.certificate.to_dict()}
    client = service.any_user_client()
    for i in range(n):
        response = client.call(
            service.primary_node().node_id,
            "/app/write_message",
            {"id": i, "msg": "msg-%02d-padded-to-20c" % i},
            credentials=credentials,
        )
        assert response.ok, response.error
    service.run(0.2)


def verify_causal_trees(spans) -> dict:
    """Check that each committed write request's causal tree is complete.

    A committed write is identified by its closed (not rolled back, not
    detach-closed) ``commit_wait`` span. Its tree must contain, under the
    same ``request`` root: an ``execute`` span on the same node, and a
    ``ledger.append`` event for the same seqno beneath that execute span.
    """
    by_id = {span.span_id: span for span in spans}
    children = build_tree(spans)
    committed = 0
    complete = 0
    problems: list[str] = []
    for span in spans:
        if span.name != "commit_wait" or span.end is None:
            continue
        if span.attrs.get("rolled_back") or span.attrs.get("detached"):
            continue
        committed += 1
        seqno = span.attrs.get("seqno")
        root = by_id.get(span.parent_id or "")
        if root is None or root.name != "request":
            problems.append(f"commit_wait seqno={seqno}: no request root")
            continue
        executes = [c for c in children.get(root.span_id, []) if c.name == "execute"]
        appends = [
            grandchild
            for execute in executes
            for grandchild in children.get(execute.span_id, [])
            if grandchild.name == "ledger.append"
            and grandchild.attrs.get("seqno") == seqno
        ]
        if not executes:
            problems.append(f"request {root.trace_id}: no execute span")
        elif not appends:
            problems.append(
                f"request {root.trace_id}: no ledger.append for seqno {seqno}"
            )
        else:
            complete += 1
    return {
        "committed_writes": committed,
        "complete_trees": complete,
        "problems": problems,
    }


def _fingerprint(service: CCFService) -> tuple:
    primary = service.primary_node()
    return (
        service.scheduler.now,
        service.scheduler._events_processed,
        primary.ledger.last_seqno,
        primary.consensus.commit_seqno,
    )


def _run(seed: int, traced: bool, detach_after: int | None = None):
    service = _build_service(seed)
    collector = None
    if traced:
        collector = ObsCollector(seed=seed)
        collector.attach_to_service(service)
    service.bootstrap()
    if detach_after == 0:
        collector.detach_from_service(service)
    _drive_writes(service)
    if detach_after == 1 and collector is not None:
        collector.detach_from_service(service)
        _drive_writes(service)
    return _fingerprint(service), collector


class TestDeterminism:
    def test_same_seed_exports_are_byte_identical(self):
        _, first = _run(5, traced=True)
        _, second = _run(5, traced=True)
        export = first.export_jsonl()
        assert export == second.export_jsonl()
        assert len(export) > 10_000
        # And the export round-trips losslessly.
        spans = load_jsonl(export)
        assert len(spans) == len(first.spans)
        assert [s.span_id for s in spans] == [s.span_id for s in first.spans]

    def test_different_seeds_differ_in_ids_only_not_in_run(self):
        state_a, col_a = _run(5, traced=True)
        state_b, col_b = _run(5, traced=True)
        assert state_a == state_b
        assert [s.span_id for s in col_a.spans] == [s.span_id for s in col_b.spans]

    def test_tracing_does_not_perturb_the_run(self):
        traced_state, _ = _run(9, traced=True)
        untraced_state, _ = _run(9, traced=False)
        assert traced_state == untraced_state

    def test_detach_mid_run_is_safe_and_non_perturbing(self):
        service = _build_service(13)
        collector = ObsCollector(seed=13)
        collector.attach_to_service(service)
        service.bootstrap()
        _drive_writes(service)
        n_spans = len(collector.spans)
        collector.detach_from_service(service)
        _drive_writes(service)

        # Nothing recorded after detach, no dangling open spans...
        assert len(collector.spans) == n_spans
        assert all(span.end is not None for span in collector.spans)
        # ...and the doubly-driven run matches an untraced twin.
        untraced = _build_service(13)
        untraced.bootstrap()
        _drive_writes(untraced)
        _drive_writes(untraced)
        assert _fingerprint(service) == _fingerprint(untraced)


class TestDisabledFastPath:
    def test_untraced_run_allocates_no_observability_state(self):
        service = _build_service(3)
        service.bootstrap()
        _drive_writes(service, n=5)
        assert service.scheduler.obs is None
        for node in service.nodes.values():
            assert node.ledger.obs is None
            assert node.store.obs is None
            assert node.enclave.obs is None

    def test_detached_components_are_unwired(self):
        service = _build_service(3)
        collector = ObsCollector(seed=3)
        collector.attach_to_service(service)
        service.bootstrap()
        collector.detach_from_service(service)
        assert service.scheduler.obs is None
        for node in service.nodes.values():
            assert node.ledger.obs is None
            assert node.ledger.obs_owner == ""


class TestCausalTree:
    @pytest.fixture(scope="class")
    def traced(self):
        service = _build_service(21)
        collector = ObsCollector(seed=21)
        # Fast-path counters are process-global; keep this run's deltas.
        before = dict(collector.export_fastpath_stats())
        collector.attach_to_service(service)
        service.bootstrap()
        _drive_writes(service)
        fastpath = {
            name: value - before.get(name, 0)
            for name, value in collector.export_fastpath_stats().items()
        }
        return service, collector, fastpath

    def test_fast_paths_are_engaged(self, traced):
        """A call site quietly reverted to the slow ladder (or a cache that
        never hits) breaks no correctness test — only this one."""
        _service, _collector, deltas = traced
        for name in ("fastec.generator_mults", "fastec.double_mults", "ae_encode.reuses"):
            assert deltas.get(name, 0) > 0, name
        assert any(
            value > 0 for name, value in deltas.items() if name.endswith(".hits")
        ), deltas

    def test_every_committed_write_has_a_complete_tree(self, traced):
        _service, collector, _fastpath = traced
        causal = verify_causal_trees(collector.spans)
        assert causal["problems"] == []
        assert causal["committed_writes"] >= WRITES
        assert causal["complete_trees"] == causal["committed_writes"]

    def test_request_roots_nest_execute_append_and_commit_wait(self, traced):
        _service, collector, _fastpath = traced
        children = build_tree(collector.spans)
        write_roots = [
            span
            for span in collector.roots()
            if span.name == "request" and span.attrs.get("path") == "/app/write_message"
        ]
        assert len(write_roots) >= WRITES
        for root in write_roots:
            assert root.attrs["status"] == 200
            names = [child.name for child in children[root.span_id]]
            assert "execute" in names
            assert "commit_wait" in names
            execute = next(c for c in children[root.span_id] if c.name == "execute")
            grandchildren = [g.name for g in children[execute.span_id]]
            assert "ledger.append" in grandchildren

    def test_trace_conforms_to_model(self, traced):
        _service, collector, _fastpath = traced
        result = check_trace(collector.spans)
        assert result.ok, result.describe()
        assert not result.has_gaps
        assert result.events_checked > 100

    def test_profile_attributes_costs(self, traced):
        _service, collector, _fastpath = traced
        report = profile_spans(collector.spans)
        assert report.count >= WRITES
        p99 = report.profile_at(99)
        assert p99 is not None
        assert "execution" in p99.costs
        assert report.percentile(99) >= report.percentile(50) > 0
        # The rendered report mentions the replication-wait attribution.
        assert "requests:" in report.format_text()

    def test_profile_categories_are_exclusive(self, traced):
        """Each stretch of a request's latency counts once: the categories
        and ``uncharged`` sum to the latency, and none exceeds it."""
        _service, collector, _fastpath = traced
        report = profile_spans(collector.spans)
        assert report.count >= WRITES
        for profile in report.profiles:
            fractions = profile.fractions()
            assert abs(sum(fractions.values()) - 1.0) <= 1e-9, fractions
            assert all(0.0 <= f <= 1.0 for f in fractions.values()), fractions
            assert profile.uncharged >= 0.0
        # Signed writes are where the commit wait and the signing delay
        # overlap; the overlap counts once.
        signed = [p for p in report.profiles if "signing" in p.costs]
        assert signed and all("replication_wait" in p.costs for p in signed)

    def test_metrics_registry_saw_the_run(self, traced):
        _service, collector, _fastpath = traced
        snapshot = collector.registry.snapshot()
        appends = [v for k, v in snapshot.items() if k.startswith("ledger.appends")]
        assert sum(appends) > 0
        assert any(k.startswith("net.bytes_sent") for k in snapshot)
        assert any(k.startswith("consensus.append_entries_sent") for k in snapshot)
        assert any(k.startswith("tee.transitions") for k in snapshot)
