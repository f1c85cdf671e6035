"""Pipelined batch execution (``NodeConfig.batch_execution``): writes queue
here instead of taking a worker each, and a drained batch executes on one
worker for the amortized batched service time.
"""

from __future__ import annotations

from repro.app.context import Request, RequestContext, Response
from repro.errors import CCFError
from repro.kv.serialization import encode_value
from repro.kv.tx import Transaction
from repro.node.frontend import error_response, no_endpoint

# (request, origin_node): origin_node is None for a direct client request,
# else the backup that forwarded it.
Queued = tuple[Request, str | None]


class ExecutionPipeline:
    """The batch queue, its drain, and in-order apply."""

    def __init__(self, node) -> None:
        self.node = node  # the hosting CCFNode
        self.node_id = node.node_id
        self._queue: list[Queued] = []
        self._queue_bytes = 0
        self._drain_handle = None
        # In-order apply: batches execute on parallel workers but append in
        # drain order, so the ledger keeps the serial oracle's order.
        self._next_seq = 0
        self._apply_next = 0
        self._completed: dict[int, tuple[list[Queued], int]] = {}

    def enqueue(self, request: Request, origin_node: str | None) -> None:
        """Queue a write for the next execution batch.

        Adaptive sizing: the batch closes immediately at
        ``batch_max_requests`` requests or ``batch_max_bytes`` of request
        payload, and otherwise drains ``batch_latency_budget`` after the
        first write was queued — under load batches fill, when idle a lone
        write only waits out the (sub-millisecond) latency budget.
        """
        config = self.node.config
        self._queue.append((request, origin_node))
        self._queue_bytes += len(encode_value(request.body))
        if (
            len(self._queue) >= config.batch_max_requests
            or self._queue_bytes >= config.batch_max_bytes
        ):
            self._cancel_drain()
            self._drain()
        elif self._drain_handle is None:
            self._drain_handle = self.node.scheduler.after(
                config.batch_latency_budget, self._drain
            )

    def on_lose_primacy(self) -> None:
        """Queued-but-unexecuted writes redirect to the new primary (or
        fail retryably); nothing was appended, so this is safe."""
        if self._queue:
            self._cancel_drain()
            batch, _bytes = self._take_queue()
            self._redirect(batch)

    def _cancel_drain(self) -> None:
        if self._drain_handle is not None:
            self._drain_handle.cancel()
            self._drain_handle = None

    def _take_queue(self) -> tuple[list[Queued], int]:
        batch, batch_bytes = self._queue, self._queue_bytes
        self._queue = []
        self._queue_bytes = 0
        return batch, batch_bytes

    def _redirect(self, batch: list[Queued]) -> None:
        for request, origin_node in batch:
            self.node.frontend.redirect(request, origin_node)

    def _can_execute(self) -> bool:
        consensus = self.node.consensus
        return consensus is not None and consensus.can_accept_writes

    def _drain(self) -> None:
        """Close the current batch and schedule its execution on the
        least-loaded worker after the amortized batched service time."""
        self._drain_handle = None
        node = self.node
        if node.stopped or not self._queue:
            return
        batch, batch_bytes = self._take_queue()
        if not self._can_execute():
            self._redirect(batch)
            return
        frontend = node.frontend
        n = len(batch)
        service_time = node.cost.batched_write_cost(n, frontend.backup_count())
        worker, queue_wait, completion = frontend.occupy_worker(service_time)
        obs = node.scheduler.obs
        if obs is not None:
            busy = frontend.busy_workers()
            obs.pipeline_batch(self.node_id, n, batch_bytes, queue_wait, service_time)
            per_request = service_time / n
            for request, origin_node in batch:
                obs.begin_execute(
                    self.node_id,
                    request,
                    False,
                    queue_wait,
                    per_request,
                    busy,
                    forwarded=origin_node is not None,
                    batched=True,
                )
        seq = self._next_seq
        self._next_seq += 1
        node.scheduler.at(completion, lambda: self._on_complete(seq, batch, worker))

    def _on_complete(self, seq: int, batch: list[Queued], worker: int) -> None:
        """A batch finished executing on its worker. Batches run on parallel
        workers but *apply* (append + respond) strictly in drain order, so
        the ledger keeps the serial oracle's arrival order even when a
        small batch overtakes a larger earlier one."""
        if self.node.stopped:
            return
        self._completed[seq] = (batch, worker)
        while self._apply_next in self._completed:
            ready, ready_worker = self._completed.pop(self._apply_next)
            self._apply_next += 1
            self._apply(ready, ready_worker)

    def _apply(self, batch: list[Queued], worker: int) -> None:
        """Apply one drained batch: every request executes speculatively
        against the batch-start snapshot, conflicting requests re-execute
        against the live store, and each surviving write set is appended in
        arrival order — byte-identical ledger entries, seqnos, and signature
        positions to serial execution."""
        node = self.node
        if node.stopped:
            return
        obs = node.scheduler.obs
        if not self._can_execute():
            # Primacy was lost while the batch sat in the pipe; nothing was
            # executed or appended, so redirecting is safe.
            if obs is not None:
                for request, _origin in batch:
                    obs.finish_execute(self.node_id, request.request_id, status=503)
            self._redirect(batch)
            return
        tracer = node.scheduler.tracer
        if tracer is not None:
            # Fold the batch boundary into the trace digest: replay equality
            # then also proves batch composition is deterministic.
            tracer.record_mark(
                f"pipeline.batch|{self.node_id}|{node.ledger.last_seqno + 1}"
                f"|{len(batch)}"
            )
        frontend = node.frontend
        base_maps, base_version = node.store.snapshot_view()
        written_keys: set[tuple[str, object]] = set()
        written_maps: set[str] = set()
        outgoing: list[tuple[Request, str | None, Response, float]] = []
        sig_delay = 0.0
        for request, origin_node in batch:
            response, signed = frontend.in_execute_span(
                request,
                self._execute,
                request, worker, base_maps, base_version, written_keys, written_maps,
            )
            if signed:
                # Later responses in the batch queue behind the signature
                # the triggering request paid for.
                sig_delay += node.cost.signature_cost
            outgoing.append((request, origin_node, response, sig_delay))
        for request, origin_node, response, delay in outgoing:
            self._respond(request, origin_node, response, delay)

    def _execute(
        self,
        request: Request,
        worker: int,
        base_maps: dict,
        base_version: int,
        written_keys: set[tuple[str, object]],
        written_maps: set[str],
    ) -> tuple[Response, bool]:
        """Execute one request of a batch. Returns (response, signed)."""
        node = self.node
        frontend = node.frontend
        endpoint = frontend.lookup_endpoint(request.path)
        if endpoint is None:
            return no_endpoint(request), False
        try:
            caller = frontend.authorize(request, endpoint)
            # Speculative execution against the shared batch-start snapshot.
            tx = Transaction(base_maps, base_version)
            ctx = RequestContext(request, tx, caller, node=node)
            body = endpoint.handler(ctx)
            conflict = any(
                (map_name, key) in written_keys
                for map_name, key, _seen in tx.reads()
            ) or bool(tx.scanned_maps() & written_maps)
            if conflict:
                # An earlier request in this batch wrote something this one
                # read (or scanned a map it wrote): roll the speculative tx
                # back and re-execute against the live store, which already
                # holds every earlier write — exact serial semantics.
                if node.scheduler.obs is not None:
                    node.scheduler.obs.pipeline_conflict(self.node_id, request.path)
                tx = node.store.begin()
                ctx = RequestContext(request, tx, caller, node=node)
                body = endpoint.handler(ctx)
            result = frontend.commit_write(request, ctx, body, worker)
            for map_name, entries in tx.write_set.updates.items():
                written_maps.add(map_name)
                for key in entries:
                    written_keys.add((map_name, key))
            return result
        except CCFError as exc:
            return error_response(request, exc), False

    def _respond(
        self,
        request: Request,
        origin_node: str | None,
        response: Response,
        delay: float,
    ) -> None:
        def deliver() -> None:
            if not self.node.stopped:
                self.node.frontend.reply(request, response, origin_node)

        if delay > 0:
            self.node.scheduler.after(delay, deliver)
        else:
            deliver()
