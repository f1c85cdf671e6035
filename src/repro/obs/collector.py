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

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
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
    return _walk_size(payload, 0)


# How ``_walk_size`` sizes a value, by its exact type. A type seen for the
# first time is classified by the isinstance ladder of ``_classify`` (so a
# subclass sizes as its base does); a dataclass's kind is the tuple of its
# field names.
_ONE, _EIGHT, _LEN, _MAP, _SEQ, _OPAQUE = range(6)
_KINDS: dict[type, object] = {
    type(None): _ONE, bool: _ONE, int: _EIGHT, float: _EIGHT,
    bytes: _LEN, str: _LEN, dict: _MAP, list: _SEQ, tuple: _SEQ,
}
_MAX_DEPTH = 6


def _classify(cls: type) -> object:
    if issubclass(cls, bool):
        kind = _ONE
    elif issubclass(cls, (int, float)):
        kind = _EIGHT
    elif issubclass(cls, (bytes, str)):
        kind = _LEN
    elif issubclass(cls, dict):
        kind = _MAP
    elif issubclass(cls, (list, tuple)):
        kind = _SEQ
    else:
        fields = getattr(cls, "__dataclass_fields__", None)
        kind = tuple(fields) if fields is not None else _OPAQUE
    _KINDS[cls] = kind
    return kind


def _walk_size(value: object, depth: int) -> int:
    if depth > _MAX_DEPTH:
        return 8
    kind = _KINDS.get(type(value))
    if kind is None:
        kind = _classify(type(value))
    if kind == _LEN:
        return len(value)
    if kind == _EIGHT:
        return 8
    if kind == _ONE:
        return 1
    if kind == _OPAQUE:
        return 16
    # A container: 2 bytes plus its members one level down. Strings and
    # ints, the commonest members, are sized in the loops without a call.
    depth += 1
    if depth > _MAX_DEPTH:
        members = 2 * len(value) if kind == _MAP else len(value) if kind == _SEQ else len(kind)
        return 2 + 8 * members
    total = 2
    if kind == _MAP:
        for key, item in value.items():
            total += len(key) if type(key) is str else _walk_size(key, depth)
            cls = type(item)
            if cls is str:
                total += len(item)
            elif cls is int:
                total += 8
            else:
                total += _walk_size(item, depth)
    elif kind == _SEQ:
        for item in value:
            cls = type(item)
            if cls is str:
                total += len(item)
            elif cls is int:
                total += 8
            else:
                total += _walk_size(item, depth)
    else:
        for name in kind:
            item = getattr(value, name)
            cls = type(item)
            if cls is str:
                total += len(item)
            elif cls is int:
                total += 8
            else:
                total += _walk_size(item, depth)
    return total


class ObsCollector:
    """Spans + metrics for one simulated run.

    The per-event hooks resolve their instruments once per node (the
    ``_by_*`` caches below) and then only update them; an instrument is
    still created on its hook's first use, so the registry holds exactly
    the series the run touched.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.registry = MetricsRegistry()
        self.spans: list[Span] = []
        self._id_rng = random.Random(f"repro-obs|{seed}")
        self._scheduler = None
        # Correlation state (in-memory only; never exported).
        self._root_by_request: dict[int, Span] = {}
        self._root_by_id: dict[str, Span] = {}
        self._exec_open: dict[tuple[str, int], Span] = {}
        self._root_by_seqno: dict[int, Span] = {}
        # node -> seqno -> open commit_wait span, in append (= seqno) order:
        # a node appends in seqno order and a truncate closes every wait
        # above its point.
        self._commit_open: dict[str, dict[int, Span]] = {}
        self._stack: list[Span] = []
        # Instrument caches of the per-event hooks.
        self._scheduler_instruments: tuple | None = None
        self._by_client: dict[str, Counter] = {}
        self._by_status: dict[tuple[int, str], Counter] = {}
        self._by_execute: dict[tuple[str, bool], tuple] = {}
        self._by_forward: dict[str, Counter] = {}
        self._by_signature: dict[str, Counter] = {}
        self._by_append: dict[str, tuple] = {}
        self._by_ae_sent: dict[str, Counter] = {}
        self._by_ae_batch: dict[str, Histogram] = {}
        self._by_commit: dict[str, Gauge] = {}
        self._by_sent: dict[str, tuple] = {}
        self._by_delivered: dict[str, Counter] = {}
        self._by_applied: dict[str, tuple] = {}
        self._by_compact: dict[str, Counter] = {}

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
        parent: Span | None,
        node: str | None,
        start: float | None,
        attrs: dict,
    ) -> Span:
        span_id = f"{self._id_rng.getrandbits(64):016x}"
        if parent is None:
            trace_id, parent_id = span_id, None
        else:
            trace_id, parent_id = parent.trace_id, parent.span_id
        span = Span(
            len(self.spans),
            span_id,
            name,
            self.now if start is None else start,
            trace_id,
            parent_id,
            None,
            node,
            # Attributes cross the trust boundary when traces are exported:
            # byte values (key material, sealed blobs) are redacted here so
            # no caller can accidentally put raw secrets in a span.
            sanitize_attrs(attrs),
        )
        self.spans.append(span)
        return span

    def _event(self, name: str, node: str | None, attrs: dict) -> Span:
        """A zero-duration span parented to the current causal context."""
        parent = self._stack[-1] if self._stack else None
        span = self._new_span(name, parent, node, None, attrs)
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
        instruments = self._scheduler_instruments
        if instruments is None:
            registry = self.registry
            instruments = self._scheduler_instruments = (
                registry.counter("scheduler.events"),
                registry.gauge("scheduler.queue_depth"),
            )
        events, depth = instruments
        events.value += 1.0
        depth.value = queue_depth
        if queue_depth > depth.max_value:
            depth.max_value = queue_depth

    # ------------------------------------------------------------------
    # Client hooks (one request's root span)

    def client_submit(self, request, client_name: str, target: str) -> None:
        span = self._new_span(
            "request",
            None,
            None,
            None,
            {"client": client_name, "target": target, "path": request.path},
        )
        self._root_by_request[request.request_id] = span
        self._root_by_id[span.span_id] = span
        counter = self._by_client.get(client_name)
        if counter is None:
            counter = self._by_client[client_name] = self.registry.counter(
                "client.requests", client=client_name
            )
        counter.value += 1.0

    def client_response(self, request_id: int, status: int) -> None:
        root = self._root_by_request.get(request_id)
        if root is None or root.end is not None:
            return
        root.end = self.now
        attrs = root.attrs
        attrs["status"] = status
        client = attrs.get("client", "")
        counter = self._by_status.get((status, client))
        if counter is None:
            counter = self._by_status[(status, client)] = self.registry.counter(
                "client.responses", status=str(status), client=client
            )
        counter.value += 1.0

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
        attrs = {"path": request.path, "read_only": read_only}
        if forwarded:
            attrs["forwarded"] = True
        span = self._new_span(
            "execute", root, node_id, self.now + queue_wait, attrs
        )
        span.charge("execution", service_time)
        if queue_wait > 0:
            span.charge("queue_wait", queue_wait)
        self._exec_open[(node_id, request.request_id)] = span
        instruments = self._by_execute.get((node_id, read_only))
        if instruments is None:
            registry = self.registry
            kind = "read" if read_only else "write"
            instruments = self._by_execute[(node_id, read_only)] = (
                registry.counter("node.requests", node=node_id, kind=kind),
                registry.gauge("node.busy_workers", node=node_id),
                registry.histogram("node.queue_wait", node=node_id),
            )
        requests, busy, waits = instruments
        requests.value += 1.0
        busy.set(busy_workers)
        waits.observe(queue_wait)

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
        span = self._event("forward", node_id, {})
        if root is not None:
            span.parent_id = root.span_id
            span.trace_id = root.trace_id
        span.charge("forwarding", cost)
        counter = self._by_forward.get(node_id)
        if counter is None:
            counter = self._by_forward[node_id] = self.registry.counter(
                "node.forwards", node=node_id
            )
        counter.value += 1.0

    def signature_tx(self, node_id: str, view: int, seqno: int, cost: float) -> None:
        span = self._event("signature_tx", node_id, {"view": view, "seqno": seqno})
        span.charge("signing", cost)
        counter = self._by_signature.get(node_id)
        if counter is None:
            counter = self._by_signature[node_id] = self.registry.counter(
                "node.signature_txs", node=node_id
            )
        counter.value += 1.0

    # ------------------------------------------------------------------
    # Ledger hooks (wired per node; ``owner`` is the node id)

    def ledger_append(self, owner: str, entry, private_bytes: int) -> None:
        # The commonest span of a run, built in place: one id draw, and
        # attrs that are ints, a str and a bool (nothing to redact).
        stack = self._stack
        parent = stack[-1] if stack else None
        spans = self.spans
        now = self.now
        span_id = f"{self._id_rng.getrandbits(64):016x}"
        txid = entry.txid
        seqno = txid.seqno
        attrs = {
            "view": txid.view,
            "seqno": seqno,
            "kind": entry.kind.value,
            "sig": entry.is_signature,
        }
        if parent is None:
            span = Span(len(spans), span_id, "ledger.append", now, span_id,
                        None, now, owner, attrs)
        else:
            span = Span(len(spans), span_id, "ledger.append", now, parent.trace_id,
                        parent.span_id, now, owner, attrs)
        spans.append(span)
        instruments = self._by_append.get(owner)
        if instruments is None:
            registry = self.registry
            instruments = self._by_append[owner] = (
                registry.counter("ledger.appends", node=owner),
                registry.histogram("ledger.private_bytes", node=owner),
            )
        appends, private = instruments
        appends.value += 1.0
        private.observe(private_bytes)
        if parent is not None and parent.name == "execute":
            # Primary execution path: bind this seqno to the request's trace
            # and open the replication/commit wait clock for it.
            root = self._root_by_id.get(parent.parent_id, parent)
            self._root_by_seqno[seqno] = root
            wait = self._new_span("commit_wait", root, owner, None, {"seqno": seqno})
            waits = self._commit_open.get(owner)
            if waits is None:
                waits = self._commit_open[owner] = {}
            if waits and seqno < next(reversed(waits)):
                # A restarted node appends below a wait it left open: keep
                # the index in seqno order.
                waits[seqno] = wait
                self._commit_open[owner] = dict(sorted(waits.items()))
            else:
                waits[seqno] = wait

    def ledger_truncate(self, owner: str, seqno: int) -> None:
        self._event("ledger.truncate", owner, {"seqno": seqno})
        self.registry.counter("ledger.truncates", node=owner).inc()
        waits = self._commit_open.get(owner)
        if not waits:
            return
        now = self.now
        while waits:
            last = next(reversed(waits))
            if last <= seqno:
                break
            span = waits.pop(last)
            span.end = now
            span.attrs["rolled_back"] = True

    def receipt_issued(self, owner: str, seqno: int, signature_seqno: int) -> None:
        root = self._root_by_seqno.get(seqno)
        span = self._event(
            "receipt", owner, {"seqno": seqno, "signature_seqno": signature_seqno}
        )
        if root is not None:
            span.parent_id = root.span_id
            span.trace_id = root.trace_id
        self.registry.counter("ledger.receipts", node=owner).inc()

    # ------------------------------------------------------------------
    # Consensus hooks

    def consensus_election(self, node_id: str, view: int) -> None:
        self._event("consensus.election", node_id, {"view": view})
        self.registry.counter("consensus.elections", node=node_id).inc()

    def consensus_become_primary(self, node_id: str, view: int) -> None:
        self._event("consensus.become_primary", node_id, {"view": view})
        self.registry.counter("consensus.primacies", node=node_id).inc()

    def consensus_step_down(self, node_id: str, view: int) -> None:
        self._event("consensus.step_down", node_id, {"view": view})
        self.registry.counter("consensus.step_downs", node=node_id).inc()

    def append_entries_sent(self, node_id: str, peer: str, n_entries: int) -> None:
        counter = self._by_ae_sent.get(node_id)
        if counter is None:
            counter = self._by_ae_sent[node_id] = self.registry.counter(
                "consensus.append_entries_sent", node=node_id
            )
        counter.value += 1.0
        if n_entries:
            batches = self._by_ae_batch.get(node_id)
            if batches is None:
                batches = self._by_ae_batch[node_id] = self.registry.histogram(
                    "consensus.batch_entries", node=node_id
                )
            batches.observe(n_entries)

    def commit_advanced(self, node_id: str, view: int, commit_seqno: int) -> None:
        commit_event = self._event(
            "consensus.commit", node_id, {"view": view, "seqno": commit_seqno}
        )
        gauge = self._by_commit.get(node_id)
        if gauge is None:
            gauge = self._by_commit[node_id] = self.registry.gauge(
                "consensus.commit_seqno", node=node_id
            )
        gauge.set(commit_seqno)
        waits = self._commit_open.get(node_id)
        if not waits:
            return
        now = self.now
        while waits:
            first = next(iter(waits))
            if first > commit_seqno:
                break
            span = waits.pop(first)
            span.end = now
            span.charge("replication_wait", span.duration)
            # The commit event that released the request, in its trace.
            if commit_event.parent_id is None:
                commit_event.parent_id = span.span_id
                commit_event.trace_id = span.trace_id

    # ------------------------------------------------------------------
    # Network hooks

    def message_sent(self, src: str, dst: str, size: int) -> None:
        instruments = self._by_sent.get(src)
        if instruments is None:
            registry = self.registry
            instruments = self._by_sent[src] = (
                registry.counter("net.messages_sent", node=src),
                registry.counter("net.bytes_sent", node=src),
            )
        messages, sent = instruments
        messages.value += 1.0
        sent.inc(size)

    def message_delivered(self, src: str, dst: str) -> None:
        counter = self._by_delivered.get(dst)
        if counter is None:
            counter = self._by_delivered[dst] = self.registry.counter(
                "net.messages_delivered", node=dst
            )
        counter.value += 1.0

    def message_dropped(self, src: str, dst: str) -> None:
        self.registry.counter("net.messages_dropped", node=dst).inc()

    # ------------------------------------------------------------------
    # KV store hooks

    def store_applied(self, owner: str, version: int, n_maps: int) -> None:
        instruments = self._by_applied.get(owner)
        if instruments is None:
            registry = self.registry
            instruments = self._by_applied[owner] = (
                registry.counter("kv.write_sets_applied", node=owner),
                registry.gauge("kv.version", node=owner),
                registry.gauge("kv.maps", node=owner),
            )
        applied, versions, maps = instruments
        applied.value += 1.0
        versions.set(version)
        maps.set(n_maps)

    def store_rollback(self, owner: str, version: int) -> None:
        self.registry.counter("kv.rollbacks", node=owner).inc()

    def store_compact(self, owner: str, version: int) -> None:
        counter = self._by_compact.get(owner)
        if counter is None:
            counter = self._by_compact[owner] = self.registry.counter(
                "kv.compactions", node=owner
            )
        counter.value += 1.0

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
        self._event(f"recovery.{phase}", node_id, attrs)
        self.registry.counter("recovery.phases", node=node_id, phase=phase).inc()

    # ------------------------------------------------------------------
    # Incremental state-transfer hooks (PR 9)

    def snapshot_produced(self, node_id: str, base_seqno: int, stats: dict) -> None:
        """One delta-snapshot production on the primary. ``stats`` carries
        only sizes and counts (chunk payloads are sealed and never reach
        span attributes)."""
        self._event(
            "statetransfer.snapshot", node_id, {"base_seqno": base_seqno, **stats}
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
        self._event(f"statetransfer.{phase}", node_id, attrs)
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
