"""The application frontend: admission, the worker pool, sessions,
forwarding, and request execution (sections 3.1, 4.3).

Request lifecycle:

1. A user request arrives over the (simulated) TLS session.
2. It occupies a worker thread for its calibrated service time.
3. The endpoint's auth policy runs, then the handler executes in a
   transaction; writes go to the primary (forwarded if needed).
4. The write set becomes a ledger entry; the user gets an immediate reply
   carrying the transaction ID (local execution guarantee); commit can be
   polled via the built-in ``tx`` endpoint (global commit guarantee).
"""

from __future__ import annotations

from repro.app.application import Endpoint
from repro.app.context import Caller, Request, RequestContext, Response
from repro.errors import (
    AuthenticationError,
    AuthorizationError,
    CCFError,
    GovernanceError,
    KVError,
    ReadBehindError,
    ReadRolledBackError,
    ServiceUnavailableError,
)
from repro.kv.tx import WriteSet
from repro.ledger.entry import TxID
from repro.node import auth as auth_module
from repro.node import maps
from repro.node.endpoints import BUILTIN_ENDPOINTS
from repro.node.wire import (
    ClientRequest,
    ClientResponse,
    ForwardedRequest,
    ForwardedResponse,
)
from repro.perf import costmodel

# First match wins, so subclasses come before their bases.
_STATUS_BY_ERROR: tuple[tuple[type[CCFError], int], ...] = (
    (AuthenticationError, 401),
    (AuthorizationError, 403),
    (ServiceUnavailableError, 503),
    # 425 Too Early: the served state is behind the read's after_txid
    # floor — retryable here or on another node.
    (ReadBehindError, 425),
    # 410 Gone: the after_txid floor was rolled back and can never
    # commit — not retryable as-is.
    (ReadRolledBackError, 410),
    (GovernanceError, 400),
    (KVError, 400),
)


def error_response(request: Request, exc: CCFError) -> Response:
    status = next(
        (code for exc_type, code in _STATUS_BY_ERROR if isinstance(exc, exc_type)), 500
    )
    return failure(request, status, str(exc))


def failure(request: Request, status: int, error: str) -> Response:
    return Response(request.request_id, status=status, error=error)


def check_app_write_set(request: Request, write_set: WriteSet) -> None:
    """Section 6.1: application logic may read but never write CCF's
    internal and governance maps — those change only through governance
    proposals and the framework itself."""
    if not request.path.startswith("/app/"):
        return
    for map_name in write_set.maps():
        if map_name.startswith(maps.GOV_PREFIX) or map_name.startswith(
            maps.INTERNAL_PREFIX
        ):
            raise AuthorizationError(
                f"application logic may not write to {map_name}"
            )


class Frontend:
    """Admits client requests into the worker pool and executes them."""

    def __init__(self, node) -> None:
        self.node = node  # the hosting CCFNode
        self.node_id = node.node_id
        self.forwards = 0
        self._workers = [0.0] * costmodel.WORKER_THREADS
        self._pending_forwards: dict[int, Request] = {}
        self._sessions_forwarded: set[str] = set()

    # -- The worker pool ------------------------------------------------

    def least_loaded_worker(self) -> int:
        return min(range(len(self._workers)), key=self._workers.__getitem__)

    def occupy_worker(self, service_time: float) -> tuple[int, float, float]:
        """Charge ``service_time`` to the least-loaded worker. Returns the
        worker, how long the work queues before it starts, and when it
        completes."""
        now = self.node.scheduler.now
        worker = self.least_loaded_worker()
        start = max(now, self._workers[worker])
        completion = start + service_time
        self._workers[worker] = completion
        return worker, start - now, completion

    def busy_workers(self) -> int:
        now = self.node.scheduler.now
        return sum(1 for free_at in self._workers if free_at > now)

    # -- Admission ------------------------------------------------------

    def admit(self, client_id: str, message: ClientRequest) -> None:
        """Admit a request into the worker pool; processing happens after
        the calibrated service time (the simulated compute cost)."""
        node = self.node
        request = message.request
        request = Request(
            path=request.path,
            body=request.body,
            credentials=request.credentials,
            request_id=request.request_id,
            client_id=client_id,
            session_id=request.session_id,
            after_txid=request.after_txid,
        )
        endpoint = self.lookup_endpoint(request.path)
        read_only = endpoint is not None and endpoint.read_only
        service_time = (
            node.cost.read_cost() if read_only
            else node.cost.write_cost(self.backup_count())
        )
        worker, queue_wait, completion = self.occupy_worker(service_time)
        obs = node.scheduler.obs
        if obs is not None:
            obs.begin_execute(
                self.node_id,
                request,
                read_only,
                queue_wait,
                service_time,
                self.busy_workers(),
            )
        node.scheduler.at(completion, lambda: self._process(request, worker))

    def backup_count(self) -> int:
        consensus = self.node.consensus
        if consensus is None:
            return 0
        return max(0, len(consensus.configurations.current.nodes) - 1)

    def lookup_endpoint(self, path: str) -> Endpoint | None:
        node = self.node
        if path.startswith("/app/"):
            return node.app.lookup(path[len("/app/"):])
        if path.startswith("/gov/") and node.governance_app is not None:
            return node.governance_app.lookup(path[len("/gov/"):])
        if path.startswith("/node/"):
            return BUILTIN_ENDPOINTS.get(path[len("/node/"):])
        return None

    # -- Replies --------------------------------------------------------

    def reply(
        self, request: Request, response: Response, origin_node: str | None = None
    ) -> None:
        """Send ``response`` to the client: directly, or through the backup
        that forwarded the request and still holds the client session."""
        if origin_node is None:
            self.node.network.send(
                self.node_id, request.client_id, ClientResponse(response)
            )
        else:
            self.node.network.send(
                self.node_id,
                origin_node,
                ForwardedResponse(
                    response=response, origin_request_id=request.request_id
                ),
            )

    def in_execute_span(self, request: Request, execute, *args):
        """``execute(*args)`` inside the observer's execute span."""
        obs = self.node.scheduler.obs
        if obs is None:
            return execute(*args)
        obs.enter_execute(self.node_id, request.request_id)
        try:
            return execute(*args)
        finally:
            obs.finish_execute(self.node_id, request.request_id)

    # -- Processing -----------------------------------------------------

    def _process(self, request: Request, worker: int) -> None:
        if not self.node.stopped:
            self.in_execute_span(request, self._process_inner, request, worker)

    def _process_inner(self, request: Request, worker: int) -> None:
        node = self.node
        endpoint = self.lookup_endpoint(request.path)
        if endpoint is None:
            self.reply(request, failure(request, 404, f"no endpoint {request.path}"))
            return
        if node.store is None or node.consensus is None:
            self.reply(request, failure(request, 503, "node not yet part of a service"))
            return

        if endpoint.read_only:
            # Session consistency: once a session was forwarded to the
            # primary, subsequent reads follow it too (section 4.3).
            if request.session_id and request.session_id in self._sessions_forwarded:
                self.forward_or_fail(request)
                return
            self._execute_read(request, endpoint)
            return

        if not node.consensus.can_accept_writes:
            self.forward_or_fail(request)
            return
        response, signed = self._execute_write(request, endpoint, worker)
        if signed:
            # The triggering request pays for the signature: its response
            # is delayed by the signing cost — Figure 8's periodic spike.
            node.scheduler.after(
                costmodel.SIGNATURE_COST, lambda: self.reply(request, response)
            )
        else:
            self.reply(request, response)

    # -- Forwarding -----------------------------------------------------

    def forward_or_fail(self, request: Request) -> None:
        node = self.node
        leader = node.consensus.leader_id
        if leader is None or leader == self.node_id or node.network.is_down(leader):
            self.reply(request, failure(request, 503, "no known primary; retry another node"))
            return
        self.forwards += 1
        obs = node.scheduler.obs
        if obs is not None:
            obs.request_forwarded(
                self.node_id, request.request_id, costmodel.FORWARDING_COST
            )
        if request.session_id:
            self._sessions_forwarded.add(request.session_id)
        self._pending_forwards[request.request_id] = request
        node.network.send(
            self.node_id,
            leader,
            ForwardedRequest(request=request, origin_node=self.node_id),
            extra_delay=costmodel.FORWARDING_COST,
        )

    def on_forwarded_request(self, _src: str, message: ForwardedRequest) -> None:
        node = self.node
        request = message.request
        endpoint = self.lookup_endpoint(request.path)
        if endpoint is None or node.consensus is None or not node.consensus.can_accept_writes:
            response = failure(request, 503, "not primary")
        else:
            # Forwarded execution runs immediately on arrival (the origin
            # node already charged the service time).
            obs = node.scheduler.obs
            if obs is not None:
                obs.begin_execute(
                    self.node_id, request, False, 0.0, 0.0, 0, forwarded=True
                )
            response, _signed = self.in_execute_span(
                request, self._execute_write, request, endpoint, self.least_loaded_worker()
            )
        self.reply(request, response, message.origin_node)

    def on_forwarded_response(self, _src: str, message: ForwardedResponse) -> None:
        request = self._pending_forwards.pop(message.origin_request_id, None)
        if request is not None:
            self.reply(request, message.response)

    def on_lose_primacy(self) -> None:
        """Fail pending forwarded requests: per section 4.3 the session is
        terminated when forwarding is no longer possible due to a primary
        change — the client retries (and re-discovers the primary)."""
        pending, self._pending_forwards = self._pending_forwards, {}
        for request in pending.values():
            self.reply(request, failure(
                request, 503, "session terminated: primary changed during forwarding"
            ))

    # -- Execution ------------------------------------------------------

    def authorize(self, request: Request, endpoint: Endpoint) -> Caller:
        """The checks in front of every handler: the service is open to
        this path, and the endpoint's auth policy accepts the caller."""
        store = self.node.store
        if request.path.startswith("/app/"):
            info = store.get(maps.SERVICE_INFO, "service") or {}
            if info.get("status") != maps.SERVICE_OPEN:
                raise ServiceUnavailableError(
                    "service is not open to users (status: "
                    f"{info.get('status', 'unknown')})"
                )
        return auth_module.authenticate(request, endpoint.auth_policy, store)

    def _execute_write(
        self, request: Request, endpoint: Endpoint, worker: int
    ) -> tuple[Response, bool]:
        """Execute a write, check what the handler wrote, append it, and
        sign when the interval is due. Returns the response and whether a
        signature was appended — the triggering request pays for it, so its
        worker is busy for the signing cost and the caller delays the
        response by as much."""
        node = self.node
        try:
            caller = self.authorize(request, endpoint)
            ctx = RequestContext(request, node.store.begin(), caller, node=node)
            body = endpoint.handler(ctx)
            write_set = ctx.tx.write_set
            check_app_write_set(request, write_set)
            if ctx.tx.is_read_only:
                txid = node.ledger.txid_at(
                    min(node.store.version, node.ledger.last_seqno)
                )
                return Response(request.request_id, body=body, txid=str(txid)), False
            entry = node.append_local_entry(write_set, claims=ctx.claims)
            response = Response(request.request_id, body=body, txid=str(entry.txid))
            signed = node.sign_if_due()
            if signed:
                self._workers[worker] += costmodel.SIGNATURE_COST
            return response, signed
        except CCFError as exc:
            return error_response(request, exc), False

    def _execute_read(self, request: Request, endpoint: Endpoint) -> None:
        node = self.node
        try:
            caller = self.authorize(request, endpoint)
            served_version = node.store.version
            tx = node.store.begin()
            if request.after_txid:
                self._check_read_freshness(request.after_txid, served_version)
            ctx = RequestContext(request, tx, caller, node=node)
            body = endpoint.handler(ctx)
            # Read-only: reply with the ID of the last applied transaction
            # (section 3.4).
            txid = node.ledger.txid_at(min(served_version, node.ledger.last_seqno))
            self.reply(request, Response(request.request_id, body=body, txid=str(txid)))
        except CCFError as exc:
            self.reply(request, error_response(request, exc))

    def _check_read_freshness(self, after_text: str, served_version: int) -> None:
        """Enforce a read's ``after_txid`` floor: serve only when the
        served state provably includes that exact transaction, else
        raise a *typed* error — behind (retryable) or rolled back (the
        floor can never commit). Never a silent stale answer."""
        try:
            after = TxID.parse(after_text)
        except CCFError:
            raise KVError(f"malformed after_txid {after_text!r}") from None
        status = self.node.consensus.status_of(after)
        if status.value == "Invalid":
            raise ReadRolledBackError(
                f"freshness floor {after_text} was rolled back and can "
                "never commit; reconcile state derived from it",
                after_txid=after_text,
            )
        if after.seqno <= served_version and self.node.ledger.has_txid(after):
            return
        raise ReadBehindError(
            f"snapshot at seqno {served_version} does not yet include "
            f"{after_text}; retry here later or read elsewhere",
            after_txid=after_text,
        )
