"""The discrete-event scheduler: a virtual clock plus an event queue.

Time is a float in *seconds* of simulated time. Events scheduled for the
same instant fire in scheduling order (a monotone sequence number breaks
ties), which keeps runs fully deterministic.
"""

from __future__ import annotations

import heapq
import random
from typing import Callable

from repro.errors import CCFError


class EventHandle:
    """A scheduled event and its cancellation token.

    The queue holds the handle, not the callback, so that cancelling lets
    go of the callback at once: a cancelled timer sits in the queue until
    virtual time reaches it, and must not keep a crashed node's ledger and
    store alive that long (every ``append_entries`` re-arms a 150-300 ms
    election timer)."""

    __slots__ = ("cancelled", "fire_at", "callback")

    def __init__(self, fire_at: float, callback: Callable[[], None]):
        self.cancelled = False
        self.fire_at = fire_at
        self.callback = callback

    def cancel(self) -> None:
        self.cancelled = True
        self.callback = None


class Scheduler:
    """Priority-queue event loop over virtual time."""

    def __init__(self, seed: int = 0):
        self.now = 0.0
        self.rng = random.Random(seed)
        self.tracer = None
        self.obs = None  # optional repro.obs.ObsCollector
        self._queue: list[tuple[float, int, EventHandle]] = []
        self._sequence = 0
        self._events_processed = 0

    def attach_tracer(self, tracer) -> None:
        """Route every dispatched event and RNG draw through ``tracer`` (a
        :class:`repro.sim.trace.TraceRecorder`). The scheduler's RNG is
        swapped for a traced one carrying over the exact generator state,
        so attaching never changes the run it observes."""
        from repro.sim.trace import TracedRandom

        traced = TracedRandom(tracer)
        traced.setstate(self.rng.getstate())
        self.rng = traced
        self.tracer = tracer
        tracer.bind_rng(traced)

    def at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute virtual ``time``."""
        if time < self.now:
            raise CCFError(f"cannot schedule in the past ({time} < {self.now})")
        handle = EventHandle(time, callback)
        heapq.heappush(self._queue, (time, self._sequence, handle))
        self._sequence += 1
        return handle

    def after(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise CCFError(f"negative delay {delay}")
        return self.at(self.now + delay, callback)

    def step(self) -> bool:
        """Run the next event. Returns False when the queue is empty."""
        while self._queue:
            time, seq, handle = heapq.heappop(self._queue)
            if handle.cancelled:
                continue
            callback = handle.callback
            self.now = time
            self._events_processed += 1
            if self.obs is not None:
                self.obs.scheduler_event(len(self._queue))
            if self.tracer is None:
                callback()
            else:
                self.tracer.begin_event(time, seq, callback)
                try:
                    callback()
                finally:
                    self.tracer.end_event()
            return True
        return False

    def run_until(self, deadline: float) -> None:
        """Process events until virtual time reaches ``deadline``."""
        while self._queue:
            time, _seq, handle = self._queue[0]
            if time > deadline:
                break
            if handle.cancelled:
                heapq.heappop(self._queue)
                continue
            self.step()
        self.now = max(self.now, deadline)

    def step_until(self, predicate: Callable[[], bool], bound: float) -> str | None:
        """Step until ``predicate`` holds. Returns None once it does, or why
        it cannot: ``bound`` seconds of virtual time passed, or the queue
        drained first."""
        deadline = self.now + bound
        while not predicate():
            if self.now >= deadline:
                return f"not reached within {bound}s"
            if not self.step():
                return "unreachable (event queue drained)"
        return None

    def run_to_completion(self, max_events: int = 10_000_000) -> None:
        """Drain the queue entirely (bounded against runaway loops)."""
        for _ in range(max_events):
            if not self.step():
                return
        raise CCFError(f"exceeded {max_events} events; likely a scheduling loop")

    @property
    def pending_events(self) -> int:
        return sum(1 for _t, _s, handle in self._queue if not handle.cancelled)

    @property
    def events_processed(self) -> int:
        return self._events_processed
