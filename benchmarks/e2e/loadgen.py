"""Load generators and the percentile helper.

Both generators sit on ``ServiceClient.send`` and ``Scheduler.at`` and keep
one :class:`Record` per request for its whole life (every reply is kept,
also those that arrive after the measured window), so that failures are
counted against attempts and the output checks can read values back.

- :class:`ClosedLoop` is the paper's generator (section 7): a fixed number
  of clients, each sending its next request when the previous reply
  arrives. A slow system therefore receives less load.
- :class:`OpenLoop` sends on a schedule regardless of replies, which is
  what counts the requests that fall due while no primary exists. Latency
  is measured from the time a request was *due*, across its retries.
"""

from __future__ import annotations

import math
import random
from typing import Callable

from repro.service.service import CCFService

from benchmarks.e2e.cluster import new_client, user_credentials

# (path, body) of the next request; called once per request, in issue order.
RequestSource = Callable[[], tuple[str, dict]]


class Record:
    """One request: what was asked, when, and how it ended."""

    __slots__ = (
        "path", "body", "due", "sent", "received", "status", "txid", "reply", "attempts",
    )

    def __init__(self, path: str, body: dict, due: float):
        self.path = path
        self.body = body
        self.due = due  # when the generator was scheduled to send it
        self.sent = due  # when the first attempt actually left
        self.received: float | None = None  # final reply (None: never answered)
        self.status: int | None = None
        self.txid: str | None = None
        self.reply = None  # body of the final reply
        self.attempts = 0

    @property
    def ok(self) -> bool:
        return self.status is not None and 200 <= self.status < 300

    @property
    def seqno(self) -> int:
        return int(self.txid.split(".")[1])


def write_source(seed: int, key_space: int, message_for) -> RequestSource:
    """Uniform writes over ``key_space`` keys; the key sequence is the only
    thing besides the cluster seed that ``--seed`` feeds."""
    rng = random.Random(seed)
    counter = iter(range(10**12))

    def next_request() -> tuple[str, dict]:
        return "/app/write_message", {
            "id": rng.randrange(key_space),
            "msg": message_for(next(counter)),
        }

    return next_request


def read_source(seed: int, key_space: int, grid: int) -> RequestSource:
    rng = random.Random(seed)

    def next_request() -> tuple[str, dict]:
        return "/app/read_message", {"id": rng.randrange(key_space // grid) * grid}

    return next_request


class ClosedLoop:
    """``clients`` simulated clients over one network endpoint; client ``i``
    talks to ``targets[i % len(targets)]`` for its whole life."""

    def __init__(
        self,
        service: CCFService,
        targets: list[str],
        source: RequestSource,
        clients: int,
        limit: int | None = None,
    ):
        self.scheduler = service.scheduler
        self.client = new_client(service, "e2e-closed-loop")
        self.credentials = user_credentials(service)
        self.targets = targets
        self.source = source
        self.clients = clients
        self.limit = limit  # stop issuing after this many requests
        self.records: list[Record] = []
        self.outstanding = 0  # requests sent and not yet answered
        self.running = False

    def start(self) -> None:
        self.running = True
        for slot in range(self.clients):
            self._send(self.targets[slot % len(self.targets)])

    def stop(self) -> None:
        self.running = False

    def _send(self, target: str) -> None:
        if not self.running:
            return
        if self.limit is not None and len(self.records) >= self.limit:
            return
        path, body = self.source()
        record = Record(path, body, self.scheduler.now)
        record.attempts = 1
        self.records.append(record)
        self.outstanding += 1

        def on_reply(response) -> None:
            self.outstanding -= 1
            record.received = self.scheduler.now
            record.status = response.status
            record.txid = response.txid
            record.reply = response.body
            self._send(target)

        self.client.send(target, path, body, self.credentials, on_response=on_reply)


class OpenLoop:
    """One request due every ``period`` sim-seconds, ``count`` in all.

    Client behaviour on trouble (section 4.3, "users simply retry with
    other nodes"): an attempt that gets a 503, or no reply within
    ``timeout``, moves the client to the next node and is retried there (a
    503 after ``backoff``, so that a leaderless cluster is polled, not
    flooded). A node that timed out is skipped until every node has. After
    a move the client asks ``/node/network`` for the primary on its next
    successful reply and goes there. A request fails when no 2xx reply has
    arrived ``deadline`` sim-seconds after it was due.
    """

    def __init__(
        self,
        service: CCFService,
        nodes: list[str],
        first_target: str,
        source: RequestSource,
        period: float,
        count: int,
        timeout: float = 0.15,
        backoff: float = 0.02,
        deadline: float = 1.0,
    ):
        self.scheduler = service.scheduler
        self.client = new_client(service, "e2e-open-loop")
        self.credentials = user_credentials(service)
        self.nodes = nodes
        self.target = first_target
        self.source = source
        self.period = period
        self.count = count
        self.timeout = timeout
        self.backoff = backoff
        self.deadline = deadline
        self.records: list[Record] = []
        self.unanswered: dict[int, Record] = {}  # issued, no 2xx reply yet
        self.suspects: set[str] = set()
        self.rediscover = False
        self.late = 0.0  # worst (actual send - due) over all requests

    def start(self) -> None:
        start = self.scheduler.now
        for index in range(self.count):
            due = start + index * self.period
            self.scheduler.at(due, lambda due=due: self._issue(due))

    @property
    def outstanding(self) -> int:
        """Requests not yet issued, or issued, unanswered and still inside
        their deadline."""
        now = self.scheduler.now
        return self.count - len(self.records) + sum(
            1 for record in self.unanswered.values() if now - record.due < self.deadline
        )

    def _issue(self, due: float) -> None:
        path, body = self.source()
        record = Record(path, body, due)
        record.sent = self.scheduler.now
        self.late = max(self.late, record.sent - due)
        self.records.append(record)
        self.unanswered[id(record)] = record
        self._attempt(record)

    def _attempt(self, record: Record) -> None:
        scheduler = self.scheduler
        if record.ok or scheduler.now - record.due >= self.deadline:
            return
        record.attempts += 1
        target = self.target
        state = {"open": True}

        def on_reply(response) -> None:
            if not state["open"]:
                return  # the attempt already timed out and was retried
            state["open"] = False
            timer.cancel()
            record.status = response.status
            if response.ok:
                record.received = scheduler.now
                record.txid = response.txid
                del self.unanswered[id(record)]
                if self.rediscover:
                    self._ask_for_primary(target)
                return
            self._move_on(target)
            scheduler.after(self.backoff, lambda: self._attempt(record))

        def on_timeout() -> None:
            if not state["open"]:
                return
            state["open"] = False
            self.suspects.add(target)
            self._move_on(target)
            self._attempt(record)

        timer = scheduler.after(self.timeout, on_timeout)
        self.client.send(
            target, record.path, record.body, self.credentials, on_response=on_reply
        )

    def _move_on(self, failed: str) -> None:
        """Leave ``failed`` — once per failure, not once per outstanding
        request that notices it."""
        if self.target != failed:
            return
        if all(node in self.suspects for node in self.nodes):
            self.suspects.clear()
        index = self.nodes.index(failed)
        for step in range(1, len(self.nodes) + 1):
            candidate = self.nodes[(index + step) % len(self.nodes)]
            if candidate not in self.suspects:
                self.target = candidate
                break
        self.rediscover = True

    def _ask_for_primary(self, via: str) -> None:
        self.rediscover = False

        def on_reply(response) -> None:
            primary = (response.body or {}).get("primary") if response.ok else None
            if primary in self.nodes and primary not in self.suspects:
                self.target = primary
            else:
                self.rediscover = True

        self.client.send(via, "/node/network", {}, {}, on_response=on_reply)


# ----------------------------------------------------------------------
# Percentiles


def tail_rank(count: int, percentile: float, beyond: int = 10) -> int:
    """1-based nearest-rank index of ``percentile`` in ``count`` sorted
    samples, lowered if necessary so that at least ``beyond`` samples lie
    above it: a tail read off fewer samples than that is one outlier."""
    if count < 1:
        raise ValueError("no samples")
    rank = max(1, math.ceil(percentile / 100.0 * count))
    return max(1, min(rank, count - beyond))


def percentile(samples: list[float], pct: float, beyond: int = 10) -> float:
    ordered = sorted(samples)
    return ordered[tail_rank(len(ordered), pct, beyond) - 1]
