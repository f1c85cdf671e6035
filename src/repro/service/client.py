"""Simulated clients: users, members, and closed-loop load generators.

A :class:`ServiceClient` is one network endpoint that sends requests to CCF
nodes and correlates the responses. Users retry against other nodes when
their node fails (section 4.3); sessions give session consistency.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable

from repro.app.context import Request, Response
from repro.crypto.certs import Identity
from repro.crypto.cose import sign_request
from repro.errors import CCFError, LostWriteError, ServiceIdentityChangedError
from repro.net.network import Network
from repro.node.wire import ClientRequest, ClientResponse
from repro.sim.metrics import LatencyRecorder, ThroughputRecorder
from repro.sim.scheduler import Scheduler

_client_ids = itertools.count(1)


class ServiceClient:
    """A user or member endpoint on the simulated network."""

    def __init__(
        self,
        scheduler: Scheduler,
        network: Network,
        name: str | None = None,
        identity: Identity | None = None,
    ):
        self.client_id = name or f"client-{next(_client_ids)}"
        self.scheduler = scheduler
        self.network = network
        self.identity = identity
        self.responses: dict[int, Response] = {}
        self._callbacks: dict[int, Callable[[Response], None]] = {}
        network.register(self.client_id, self._on_message)

    def _on_message(self, src: str, payload: object) -> None:
        if isinstance(payload, ClientResponse):
            response = payload.response
            obs = self.scheduler.obs
            if obs is not None:
                obs.client_response(response.request_id, response.status)
            self.responses[response.request_id] = response
            callback = self._callbacks.pop(response.request_id, None)
            if callback is not None:
                callback(response)

    # ------------------------------------------------------------------

    def credentials_for_cert_auth(self) -> dict:
        if self.identity is None:
            return {}
        return {"certificate": self.identity.certificate.to_dict()}

    def send(
        self,
        node_id: str,
        path: str,
        body: dict | None = None,
        credentials: dict | None = None,
        session_id: str = "",
        on_response: Callable[[Response], None] | None = None,
        after_txid: str = "",
    ) -> int:
        """Fire a request; returns the request id for correlation.

        ``after_txid`` sets a read's ``after_txid`` floor: a node serving
        the read must prove its state includes that TxID, or reply with a
        typed retryable "behind" error (never silently stale).
        """
        request = Request(
            path=path,
            body=body or {},
            credentials=credentials if credentials is not None else self.credentials_for_cert_auth(),
            session_id=session_id or self.client_id,
            after_txid=after_txid,
        )
        if on_response is not None:
            self._callbacks[request.request_id] = on_response
        obs = self.scheduler.obs
        if obs is not None:
            obs.client_submit(request, self.client_id, node_id)
        self.network.send(self.client_id, node_id, ClientRequest(request))
        return request.request_id

    def send_signed(
        self,
        node_id: str,
        path: str,
        body: dict,
        on_response: Callable[[Response], None] | None = None,
    ) -> int:
        """Send a member/user-signed request (governance traffic)."""
        if self.identity is None:
            raise ValueError("signing requires an identity")
        envelope = sign_request(self.identity, body, headers={"path": path})
        return self.send(
            node_id,
            path,
            body=body,
            credentials={"signed_request": envelope.to_dict()},
            on_response=on_response,
        )

    def call(self, node_id: str, path: str, body: dict | None = None,
             credentials: dict | None = None, timeout: float = 5.0,
             signed: bool = False, after_txid: str = "") -> Response:
        """Convenience: send and run the scheduler until the reply arrives."""
        if signed:
            request_id = self.send_signed(node_id, path, body or {})
        else:
            request_id = self.send(node_id, path, body, credentials,
                                   after_txid=after_txid)
        deadline = self.scheduler.now + timeout
        while request_id not in self.responses and self.scheduler.now < deadline:
            if not self.scheduler.step():
                break
        response = self.responses.pop(request_id, None)
        if response is None:
            return Response(request_id, status=504, error="client-side timeout")
        return response


@dataclass
class AckedWrite:
    """One write this client saw acknowledged, with its receipt if the
    client fetched one before the disaster."""

    txid: str
    path: str
    body: dict
    receipt: dict | None = None


class ContinuityTracker:
    """Client-side rollback detection (section 5.2).

    The paper's disaster recovery is *best effort*: a suffix of the ledger
    can be lost, and the defence is detectability, not prevention. This
    tracker is the client half of that contract: it pins the service
    identity on first contact and remembers every acknowledged write (plus
    any receipts fetched for them). After reconnecting — possibly to a
    recovered service — :meth:`audit` re-checks both and returns *typed*
    findings: a :class:`ServiceIdentityChangedError` whenever the identity
    moved (recovery always mints a new one), and a :class:`LostWriteError`
    for each acknowledged transaction the service no longer commits.
    Nothing is ever silently dropped."""

    def __init__(self, client: ServiceClient):
        self.client = client
        self.pinned_identity: str | None = None
        self.acked: dict[str, AckedWrite] = {}

    # ------------------------------------------------------------------

    def _service_public_key(self, node_id: str) -> str | None:
        response = self.client.call(node_id, "/node/service_info", {})
        if not response.ok:
            return None
        certificate = (response.body or {}).get("certificate") or {}
        return certificate.get("public_key")

    def pin_identity(self, node_id: str) -> str:
        """First contact: remember the service identity we are talking to
        (a real client gets it out-of-band or on TLS establishment)."""
        key = self._service_public_key(node_id)
        if key is None:
            raise CCFError(f"cannot read service identity from {node_id}")
        self.pinned_identity = key
        return key

    def accept_identity(self, node_id: str) -> str:
        """Explicitly re-pin after a *known* recovery — the user-level act
        of trusting the new service identity."""
        return self.pin_identity(node_id)

    def record_ack(self, txid: str, path: str = "", body: dict | None = None) -> None:
        self.acked[txid] = AckedWrite(txid=txid, path=path, body=dict(body or {}))

    def fetch_receipt(self, node_id: str, txid: str) -> dict | None:
        """Ask for an offline-verifiable receipt and attach it to the
        acked write (requires the txid to be committed and signed over)."""
        response = self.client.call(node_id, "/node/receipt", {"txid": txid})
        if not response.ok:
            return None
        receipt = (response.body or {}).get("receipt")
        if txid in self.acked:
            self.acked[txid].receipt = receipt
        return receipt

    @property
    def receipted_txids(self) -> list[str]:
        return sorted(t for t, w in self.acked.items() if w.receipt is not None)

    # ------------------------------------------------------------------

    def audit(self, node_id: str) -> list[CCFError]:
        """Reconnect and re-check everything this client was promised.

        Returns typed findings (empty means full continuity): one
        :class:`ServiceIdentityChangedError` if the pinned identity no
        longer matches, and one :class:`LostWriteError` per acknowledged
        transaction whose status is no longer ``Committed`` — including a
        seqno that was re-used by the recovered service in a different view
        (reported as ``Invalid``)."""
        findings: list[CCFError] = []
        current = self._service_public_key(node_id)
        if current is None:
            findings.append(CCFError(f"service unreachable via {node_id}"))
            return findings
        if self.pinned_identity is not None and current != self.pinned_identity:
            findings.append(
                ServiceIdentityChangedError(
                    f"service identity changed from {self.pinned_identity[:16]}… "
                    f"to {current[:16]}… — a recovery (and possible rollback) happened"
                )
            )
        for txid in sorted(self.acked):
            response = self.client.call(node_id, "/node/tx", {"txid": txid})
            status = (response.body or {}).get("status") if response.ok else None
            if status != "Committed":
                write = self.acked[txid]
                findings.append(
                    LostWriteError(
                        f"acknowledged transaction {txid} is now "
                        f"{status or 'unreachable'}"
                        + (" (client holds a receipt)" if write.receipt else ""),
                        txid=txid,
                    )
                )
        return findings


class ClosedLoopClient:
    """The paper's load generator: up to ``concurrency`` outstanding
    requests in a closed loop (section 7's "up to 1k concurrent requests").

    ``request_factory(i)`` returns (path, body, credentials) for the i-th
    request; responses are recorded into the shared metrics objects.
    Failed/timed-out requests are retried against ``fallback_nodes`` —
    users "simply retry with other nodes" (section 4.3).

    Retries use exponential backoff with jitter: ``retry_timeout`` is the
    *base* deadline for a request; each consecutive timeout doubles it
    (``backoff_factor``) up to ``max_retry_timeout``, and a success resets
    it. The jitter desynchronizes the client population so a recovering
    primary is not hit by a retry stampede. A 503 (no/changed primary)
    also triggers primary re-discovery via the ``/node/network`` endpoint.
    """

    def __init__(
        self,
        client: ServiceClient,
        target_node: str,
        request_factory: Callable[[int], tuple[str, dict, dict | None]],
        concurrency: int,
        throughput: ThroughputRecorder | None = None,
        latency: LatencyRecorder | None = None,
        fallback_nodes: list[str] | None = None,
        retry_timeout: float = 0.2,
        backoff_factor: float = 2.0,
        max_retry_timeout: float = 2.0,
        retry_jitter: float = 0.1,
    ):
        self.client = client
        self.target_node = target_node
        self.request_factory = request_factory
        self.concurrency = concurrency
        self.throughput = throughput if throughput is not None else ThroughputRecorder()
        self.latency = latency if latency is not None else LatencyRecorder()
        self.fallback_nodes = fallback_nodes or []
        self.retry_timeout = retry_timeout
        self.backoff_factor = backoff_factor
        self.max_retry_timeout = max(max_retry_timeout, retry_timeout)
        self.retry_jitter = retry_jitter
        self._consecutive_timeouts = 0
        self._counter = itertools.count()
        self._running = False
        self.errors = 0

    def start(self) -> None:
        self._running = True
        for _ in range(self.concurrency):
            self._fire()

    def stop(self) -> None:
        self._running = False

    def _current_timeout(self) -> float:
        """Base deadline grown exponentially by consecutive timeouts, with
        multiplicative jitter on top."""
        timeout = min(
            self.retry_timeout * self.backoff_factor ** self._consecutive_timeouts,
            self.max_retry_timeout,
        )
        if self.retry_jitter > 0:
            timeout *= 1.0 + self.client.scheduler.rng.uniform(0, self.retry_jitter)
        return timeout

    def _rotate_target(self, failed_node: str) -> None:
        """Move to the next fallback node — but only once per failure
        event, not once per outstanding request (section 4.3: "users …
        will retry with other nodes")."""
        if self.fallback_nodes and self.target_node == failed_node:
            self.fallback_nodes.append(self.target_node)
            self.target_node = self.fallback_nodes.pop(0)
            self._probe_for_primary()

    def _fire(self) -> None:
        if not self._running:
            return
        i = next(self._counter)
        path, body, credentials = self.request_factory(i)
        sent_at = self.client.scheduler.now
        sent_to = self.target_node
        state = {"done": False}

        def on_response(response) -> None:
            if state["done"]:
                return
            state["done"] = True
            timer.cancel()
            now = self.client.scheduler.now
            if response.ok:
                self._consecutive_timeouts = 0
                self.throughput.record(now)
                self.latency.record(now, now - sent_at)
            else:
                self.errors += 1
                if response.status == 503:
                    # "No known primary" / primary changed mid-forward: the
                    # node is up but cannot serve writes — re-discover.
                    self._probe_for_primary()
            self._fire()

        def on_timeout() -> None:
            if state["done"]:
                return
            state["done"] = True
            self.errors += 1
            self._consecutive_timeouts += 1
            self._rotate_target(sent_to)
            self._fire()

        timer = self.client.scheduler.after(self._current_timeout(), on_timeout)
        self.client.send(
            self.target_node, path, body, credentials, on_response=on_response
        )

    def _probe_for_primary(self) -> None:
        """After a failure, ask the current node who the primary is and
        re-target writes there (what a real client does via /node/network)."""

        def on_network_info(response) -> None:
            if not self._running or not response.ok:
                return
            primary = (response.body or {}).get("primary")
            if primary and primary != self.target_node:
                nodes = (response.body or {}).get("nodes", {})
                if primary in nodes:
                    if self.target_node not in self.fallback_nodes:
                        self.fallback_nodes.append(self.target_node)
                    if primary in self.fallback_nodes:
                        self.fallback_nodes.remove(primary)
                    self.target_node = primary

        self.client.send(self.target_node, "/node/network", {}, {},
                         on_response=on_network_info)
