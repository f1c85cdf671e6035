"""The observability collector: span tracer + metrics registry in one.

One :class:`ObsCollector` observes one simulated run. It is attached to the
scheduler (``collector.attach_to_service(service)``) and from then on every
instrumented layer — scheduler, network, consensus, node frontend, ledger,
KV store, enclave — reports into it through the hook methods below. Every
hook site in the runtime is guarded (``if obs is not None``), so with no
collector attached the whole layer costs one attribute check and allocates
nothing.

Determinism contract (DESIGN.md § determinism discipline):

- the collector never reads a wall clock — all timestamps are
  ``scheduler.now``;
- span ids come from the collector's *own* RNG (seeded from the collector
  seed), never from the scheduler's stream — attaching a collector does not
  change the run it observes;
- process-global counters (request ids) are used only as in-memory
  correlation keys and never exported.

Equal seeds therefore yield byte-identical JSONL exports, which is what the
trace checker (:mod:`repro.obs.checker`) and the replay sanitizer rely on.

Causal model of one write request (the paper's sections 3.1/4.1 lifecycle)::

    request                      (client submit .. client response)
    ├─ execute                   (worker pickup .. handler done)
    │  ├─ ledger.append          (entry framed and appended, seqno bound)
    │  └─ signature_tx           (when this request triggered a signature)
    ├─ commit_wait               (append .. primary commit covers seqno)
    │  └─ consensus.commit       (the commit advance that closed it)
    └─ receipt                   (receipt issued for the seqno)
"""

from __future__ import annotations

import random

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Span, export_jsonl, sanitize_attrs


def estimate_wire_size(payload: object) -> int:
    """A deterministic byte-size estimate for a simulated network message.

    Sealed channel traffic (every consensus message) is measured exactly
    from its box plus a 16-byte header for the sender and counter; plain
    payloads are walked structurally with a small per-field overhead,
    mirroring what a length-prefixed codec would produce.
    """
    box = getattr(payload, "box", None)
    if isinstance(box, bytes):
        return len(box) + 16  # header: sender + counter
    return _walk_size(payload, depth=0)


def _walk_size(value: object, depth: int) -> int:
    if depth > 6:
        return 8
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, str):
        return len(value)
    if isinstance(value, dict):
        return 2 + sum(
            _walk_size(k, depth + 1) + _walk_size(v, depth + 1)
            for k, v in value.items()
        )
    if isinstance(value, (list, tuple)):
        return 2 + sum(_walk_size(item, depth + 1) for item in value)
    fields = getattr(value, "__dataclass_fields__", None)
    if fields is not None:
        return 2 + sum(
            _walk_size(getattr(value, name), depth + 1) for name in fields
        )
    return 16


class ObsCollector:
    """Spans + metrics for one simulated run."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.registry = MetricsRegistry()
        self.spans: list[Span] = []
        self._id_rng = random.Random(f"repro-obs|{seed}")
        self._scheduler = None
        # Correlation state (in-memory only; never exported).
        self._root_by_request: dict[int, Span] = {}
        self._span_by_id: dict[str, Span] = {}
        self._exec_open: dict[tuple[str, int], Span] = {}
        self._root_by_seqno: dict[int, Span] = {}
        self._commit_open: dict[tuple[str, int], Span] = {}
        self._stack: list[Span] = []

    # ------------------------------------------------------------------
    # Attachment

    @property
    def now(self) -> float:
        return self._scheduler.now if self._scheduler is not None else 0.0

    def attach(self, scheduler) -> None:
        """Attach to a scheduler; components that hold the scheduler (net,
        consensus, node frontends) start reporting immediately, and nodes
        created later self-wire their ledger/store/enclave."""
        self._scheduler = scheduler
        scheduler.obs = self

    def attach_to_service(self, service) -> None:
        """Attach to a running service: the scheduler plus every existing
        node's ledger, store, and enclave."""
        self.attach(service.scheduler)
        for node in service.nodes.values():
            node.wire_obs(self)

    def detach_from_service(self, service) -> None:
        """Detach mid-run: close open spans and unhook every component.
        The run continues exactly as it would have (hooks are guarded and
        the collector never touched the scheduler's RNG)."""
        if service.scheduler.obs is self:
            service.scheduler.obs = None
        for node in service.nodes.values():
            node.wire_obs(None)
        now = self.now
        for span in self.spans:
            if span.end is None:
                span.end = now
                span.attrs["detached"] = True
        self._scheduler = None
        self._exec_open.clear()
        self._commit_open.clear()
        self._stack.clear()

    # ------------------------------------------------------------------
    # Span plumbing

    def _new_span(
        self,
        name: str,
        parent: Span | None = None,
        node: str | None = None,
        start: float | None = None,
        **attrs,
    ) -> Span:
        span_id = f"{self._id_rng.getrandbits(64):016x}"
        span = Span(
            index=len(self.spans),
            span_id=span_id,
            name=name,
            start=self.now if start is None else start,
            trace_id=parent.trace_id if parent is not None else span_id,
            parent_id=parent.span_id if parent is not None else None,
            node=node,
            # Attributes cross the trust boundary when traces are exported:
            # byte values (key material, sealed blobs) are redacted here so
            # no caller can accidentally put raw secrets in a span.
            attrs=sanitize_attrs(attrs),
        )
        self.spans.append(span)
        self._span_by_id[span_id] = span
        return span

    def _event(self, name: str, node: str | None = None, **attrs) -> Span:
        """A zero-duration span parented to the current causal context."""
        parent = self._stack[-1] if self._stack else None
        span = self._new_span(name, parent=parent, node=node, **attrs)
        span.end = span.start
        return span

    def export_jsonl(self) -> str:
        """All spans, creation order, one JSON object per line."""
        return export_jsonl(self.spans)

    def export_fastpath_stats(self) -> dict[str, int]:
        """Snapshot the crypto/serialization fast-path cache counters into
        the registry as ``fastpath.*`` counters, and return them.

        The counters live as process-global module state (the caches are
        shared across all simulated nodes — they memoize pure functions, so
        sharing cannot change outcomes) and are *host-side* quantities:
        exporting them records how hard the fast paths worked, not anything
        about simulated time.
        """
        from repro.consensus import messages
        from repro.crypto import certs, ec, ecdsa, fastec
        from repro.node import auth
        from repro.obs.metrics import RUNTIME_STATS

        merged: dict[str, int] = {}
        for stats in (
            fastec.STATS,
            ec.DECODE_STATS,
            ecdsa.MEMO_STATS,
            certs.CERT_STATS,
            messages.ENCODE_STATS,
            auth.AUTH_STATS,
            RUNTIME_STATS.snapshot(),
        ):
            merged.update(stats)
        for name in sorted(merged):
            self.registry.counter(f"fastpath.{name}").value = float(merged[name])
        return merged

    def roots(self) -> list[Span]:
        return [span for span in self.spans if span.is_root]

    # ------------------------------------------------------------------
    # Scheduler hooks

    def scheduler_event(self, queue_depth: int) -> None:
        self.registry.counter("scheduler.events").inc()
        self.registry.gauge("scheduler.queue_depth").set(queue_depth)

    # ------------------------------------------------------------------
    # Client hooks (one request's root span)

    def client_submit(self, request, client_name: str, target: str) -> None:
        span = self._new_span(
            "request", client=client_name, target=target, path=request.path
        )
        self._root_by_request[request.request_id] = span
        self.registry.counter("client.requests", client=client_name).inc()

    def client_response(self, request_id: int, status: int) -> None:
        root = self._root_by_request.get(request_id)
        if root is None or root.end is not None:
            return
        root.end = self.now
        root.attrs["status"] = status
        self.registry.counter(
            "client.responses", status=str(status), client=root.attrs.get("client", "")
        ).inc()

    # ------------------------------------------------------------------
    # Node frontend hooks

    def begin_execute(
        self,
        node_id: str,
        request,
        read_only: bool,
        queue_wait: float,
        service_time: float,
        busy_workers: int,
        forwarded: bool = False,
    ) -> None:
        root = self._root_by_request.get(request.request_id)
        span = self._new_span(
            "execute",
            parent=root,
            node=node_id,
            start=self.now + queue_wait,
            path=request.path,
            read_only=read_only,
        )
        if forwarded:
            span.attrs["forwarded"] = True
        span.charge("execution", service_time)
        if queue_wait > 0:
            span.charge("queue_wait", queue_wait)
        self._exec_open[(node_id, request.request_id)] = span
        kind = "read" if read_only else "write"
        self.registry.counter("node.requests", node=node_id, kind=kind).inc()
        self.registry.gauge("node.busy_workers", node=node_id).set(busy_workers)
        self.registry.histogram("node.queue_wait", node=node_id).observe(queue_wait)

    def enter_execute(self, node_id: str, request_id: int) -> None:
        span = self._exec_open.get((node_id, request_id))
        if span is not None:
            self._stack.append(span)

    def finish_execute(
        self, node_id: str, request_id: int, status: int | None = None
    ) -> None:
        span = self._exec_open.pop((node_id, request_id), None)
        if span is None:
            return
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        span.end = self.now
        if status is not None:
            span.attrs["status"] = status

    def request_forwarded(self, node_id: str, request_id: int, cost: float) -> None:
        root = self._root_by_request.get(request_id)
        span = self._event("forward", node=node_id)
        if root is not None:
            span.parent_id = root.span_id
            span.trace_id = root.trace_id
        span.charge("forwarding", cost)
        self.registry.counter("node.forwards", node=node_id).inc()

    def signature_tx(self, node_id: str, view: int, seqno: int, cost: float) -> None:
        span = self._event("signature_tx", node=node_id, view=view, seqno=seqno)
        span.charge("signing", cost)
        self.registry.counter("node.signature_txs", node=node_id).inc()

    # ------------------------------------------------------------------
    # Ledger hooks (wired per node; ``owner`` is the node id)

    def ledger_append(self, owner: str, entry, private_bytes: int) -> None:
        parent = self._stack[-1] if self._stack else None
        span = self._event(
            "ledger.append",
            node=owner,
            view=entry.txid.view,
            seqno=entry.txid.seqno,
            kind=entry.kind.value,
            sig=entry.is_signature,
        )
        self.registry.counter("ledger.appends", node=owner).inc()
        self.registry.histogram("ledger.private_bytes", node=owner).observe(
            private_bytes
        )
        if parent is not None and parent.name == "execute":
            # Primary execution path: bind this seqno to the request's trace
            # and open the replication/commit wait clock for it.
            root = self._root_by_request_span(parent)
            self._root_by_seqno[entry.txid.seqno] = root
            wait = self._new_span(
                "commit_wait", parent=root, node=owner, seqno=entry.txid.seqno
            )
            self._commit_open[(owner, entry.txid.seqno)] = wait

    def _root_by_request_span(self, span: Span) -> Span:
        if span.parent_id is not None:
            return self._span_by_id.get(span.parent_id, span)
        return span

    def ledger_truncate(self, owner: str, seqno: int) -> None:
        self._event("ledger.truncate", node=owner, seqno=seqno)
        self.registry.counter("ledger.truncates", node=owner).inc()
        for key in [k for k in self._commit_open if k[0] == owner and k[1] > seqno]:
            span = self._commit_open.pop(key)
            span.end = self.now
            span.attrs["rolled_back"] = True

    def receipt_issued(self, owner: str, seqno: int, signature_seqno: int) -> None:
        root = self._root_by_seqno.get(seqno)
        span = self._event(
            "receipt", node=owner, seqno=seqno, signature_seqno=signature_seqno
        )
        if root is not None:
            span.parent_id = root.span_id
            span.trace_id = root.trace_id
        self.registry.counter("ledger.receipts", node=owner).inc()

    # ------------------------------------------------------------------
    # Consensus hooks

    def consensus_election(self, node_id: str, view: int) -> None:
        self._event("consensus.election", node=node_id, view=view)
        self.registry.counter("consensus.elections", node=node_id).inc()

    def consensus_become_primary(self, node_id: str, view: int) -> None:
        self._event("consensus.become_primary", node=node_id, view=view)
        self.registry.counter("consensus.primacies", node=node_id).inc()

    def consensus_step_down(self, node_id: str, view: int) -> None:
        self._event("consensus.step_down", node=node_id, view=view)
        self.registry.counter("consensus.step_downs", node=node_id).inc()

    def append_entries_sent(self, node_id: str, peer: str, n_entries: int) -> None:
        self.registry.counter("consensus.append_entries_sent", node=node_id).inc()
        if n_entries:
            self.registry.histogram("consensus.batch_entries", node=node_id).observe(
                n_entries
            )

    def commit_advanced(self, node_id: str, view: int, commit_seqno: int) -> None:
        commit_event = self._event(
            "consensus.commit", node=node_id, view=view, seqno=commit_seqno
        )
        self.registry.gauge("consensus.commit_seqno", node=node_id).set(commit_seqno)
        closable = sorted(
            key for key in self._commit_open
            if key[0] == node_id and key[1] <= commit_seqno
        )
        for key in closable:
            span = self._commit_open.pop(key)
            span.end = self.now
            span.charge("replication_wait", span.duration)
            # The commit event that released the request, in its trace.
            if commit_event.parent_id is None:
                commit_event.parent_id = span.span_id
                commit_event.trace_id = span.trace_id

    # ------------------------------------------------------------------
    # Network hooks

    def message_sent(self, src: str, dst: str, size: int) -> None:
        self.registry.counter("net.messages_sent", node=src).inc()
        self.registry.counter("net.bytes_sent", node=src).inc(size)

    def message_delivered(self, src: str, dst: str) -> None:
        self.registry.counter("net.messages_delivered", node=dst).inc()

    def message_dropped(self, src: str, dst: str) -> None:
        self.registry.counter("net.messages_dropped", node=dst).inc()

    # ------------------------------------------------------------------
    # KV store hooks

    def store_applied(self, owner: str, version: int, n_maps: int) -> None:
        self.registry.counter("kv.write_sets_applied", node=owner).inc()
        self.registry.gauge("kv.version", node=owner).set(version)
        self.registry.gauge("kv.maps", node=owner).set(n_maps)

    def store_rollback(self, owner: str, version: int) -> None:
        self.registry.counter("kv.rollbacks", node=owner).inc()

    def store_compact(self, owner: str, version: int) -> None:
        self.registry.counter("kv.compactions", node=owner).inc()

    # ------------------------------------------------------------------
    # Enclave hooks

    def enclave_transition(self, owner: str, kind: str) -> None:
        self.registry.counter("tee.transitions", node=owner, kind=kind).inc()

    # ------------------------------------------------------------------
    # Disaster-recovery hooks (section 5.2)

    def recovery_event(self, node_id: str, phase: str, **attrs) -> None:
        """One disaster-recovery phase boundary: ``replay``,
        ``awaiting_shares``, ``share_submitted``, ``share_rejected``,
        ``reconstructed``, ``private_recovery``, ``open``. Each becomes a
        ``recovery.<phase>`` span plus a ``recovery.phases`` counter, so a
        trace of a recovered run shows the §5.2 protocol end to end."""
        self._event(f"recovery.{phase}", node=node_id, **attrs)
        self.registry.counter("recovery.phases", node=node_id, phase=phase).inc()

    # ------------------------------------------------------------------
    # Incremental state-transfer hooks (PR 9)

    def snapshot_produced(self, node_id: str, base_seqno: int, stats: dict) -> None:
        """One delta-snapshot production on the primary. ``stats`` carries
        only sizes and counts (chunk payloads are sealed and never reach
        span attributes)."""
        self._event(
            "statetransfer.snapshot", node=node_id, base_seqno=base_seqno, **stats
        )
        self.registry.counter("statetransfer.snapshots", node=node_id).inc()
        self.registry.counter("statetransfer.chunks_built", node=node_id).inc(
            stats.get("chunks_built", 0)
        )
        self.registry.counter("statetransfer.chunks_reused", node=node_id).inc(
            stats.get("chunks_reused", 0)
        )
        self.registry.counter("statetransfer.entries_serialized", node=node_id).inc(
            stats.get("entries_serialized", 0)
        )

    def state_transfer_event(self, node_id: str, phase: str, **attrs) -> None:
        """One chunked-join phase boundary: ``manifest`` (verified, transfer
        planned), ``chunks_served`` (primary side), ``installed`` (store
        assembled), ``fallback`` (transfer abandoned toward full join)."""
        self._event(f"statetransfer.{phase}", node=node_id, **attrs)
        self.registry.counter("statetransfer.events", node=node_id, phase=phase).inc()

    def state_chunks_progress(self, node_id: str, fetched: int, cached: int) -> None:
        """Chunk accounting on the joiner: ``fetched`` came over the wire,
        ``cached`` were satisfied from the local content-addressed cache
        (the dedup win a warm rejoin banks on)."""
        if fetched:
            self.registry.counter(
                "statetransfer.chunks_fetched", node=node_id
            ).inc(fetched)
        if cached:
            self.registry.counter(
                "statetransfer.chunks_cached", node=node_id
            ).inc(cached)
