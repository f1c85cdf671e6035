"""The simulated message-passing network.

Endpoints register a handler by name; ``send`` schedules delivery through
the scheduler after the link latency. Faults are first-class and drive the
availability experiments (Figure 9) and the chaos engine
(:mod:`repro.sim.chaos`):

- crashed endpoints and pairwise partitions;
- probabilistic loss, globally or per directed link (asymmetric loss);
- message duplication and delay spikes (which reorder deliveries);
- per-node slowdown — a *gray failure*: the node is alive and correct but
  every message it handles or emits is served at inflated latency.

A message sent ``ordered`` travels on its directed link's stream, the way
CCF's node-to-node frames travel on a TCP connection the host keeps open:
it is delivered no earlier than the previous ordered message on the same
``(src, dst)``, so two frames sent back to back arrive in send order. A
delay spike is added after that ordering and does not hold the stream
back, so the host can still make a later frame overtake a spiked one;
and a duplicate is delivered after its original. Unordered messages keep
independent latencies and may arrive in any order. Nodes send their
consensus frames ordered, and a primary its answer to a join (the
response, then the snapshot chunks it pushes behind it); client traffic,
forwarding and join requests travel unordered.

All randomness comes from the scheduler's seeded RNG, and the extra draws
only happen while the corresponding fault is armed, so runs without faults
consume the RNG exactly as before and every faulty run is replayable from
its seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.obs.collector import estimate_wire_size
from repro.sim.scheduler import Scheduler

Handler = Callable[[str, Any], None]  # (source endpoint, payload)


@dataclass
class LinkConfig:
    """Latency model for one class of link: base plus uniform jitter."""

    base_latency: float = 0.00025  # 250 µs one-way, LAN-like
    jitter: float = 0.00005

    def sample(self, rng) -> float:
        if self.jitter <= 0:
            return self.base_latency
        return self.base_latency + rng.uniform(0, self.jitter)


class Network:
    """Registry of endpoints + fault state + delivery scheduling."""

    def __init__(self, scheduler: Scheduler, link: LinkConfig | None = None):
        self.scheduler = scheduler
        self.link = link if link is not None else LinkConfig()
        self._handlers: dict[str, Handler] = {}
        self._down: set[str] = set()
        self._partitions: set[frozenset[str]] = set()
        self._loss_probability = 0.0
        self._link_loss: dict[tuple[str, str], float] = {}
        self._slowdowns: dict[str, float] = {}
        self._duplicate_probability = 0.0
        self._spike_probability = 0.0
        self._spike_magnitude = 0.0
        # Per directed link: the delivery time of the last ordered message.
        self._stream_tails: dict[tuple[str, str], float] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_duplicated = 0

    # ------------------------------------------------------------------
    # Topology

    def register(self, name: str, handler: Handler) -> None:
        if name in self._handlers:
            raise ConfigurationError(f"endpoint {name!r} already registered")
        self._handlers[name] = handler

    def unregister(self, name: str) -> None:
        self._handlers.pop(name, None)

    # ------------------------------------------------------------------
    # Faults

    def crash(self, name: str) -> None:
        """Mark an endpoint as crashed: it neither sends nor receives."""
        self._down.add(name)

    def restart(self, name: str) -> None:
        self._down.discard(name)

    def is_down(self, name: str) -> bool:
        return name in self._down

    def partition(self, a: str, b: str) -> None:
        """Block delivery between ``a`` and ``b`` (both directions)."""
        self._partitions.add(frozenset((a, b)))

    def partition_groups(self, group_a: list[str], group_b: list[str]) -> None:
        for a in group_a:
            for b in group_b:
                self.partition(a, b)

    def heal(self, a: str | None = None, b: str | None = None) -> None:
        """Heal one pair, or all partitions when called without arguments.

        Passing exactly one endpoint is a caller bug (the partition set is
        keyed by pairs, so nothing could match) and raises rather than
        silently doing nothing.
        """
        if (a is None) != (b is None):
            raise ConfigurationError(
                "heal() takes either both endpoints of a partitioned pair "
                "or no arguments (heal everything)"
            )
        if a is None and b is None:
            self._partitions.clear()
        else:
            self._partitions.discard(frozenset((a, b)))

    def set_loss_probability(self, probability: float) -> None:
        self._check_probability(probability)
        self._loss_probability = probability

    @staticmethod
    def _check_probability(probability: float) -> None:
        if not 0.0 <= probability < 1.0:
            raise ConfigurationError("loss probability must be in [0, 1)")

    def set_link_loss(self, src: str, dst: str, probability: float) -> None:
        """Asymmetric loss on the directed link src -> dst only."""
        self._check_probability(probability)
        if probability == 0.0:
            self._link_loss.pop((src, dst), None)
        else:
            self._link_loss[(src, dst)] = probability

    def set_slowdown(self, name: str, extra_delay: float) -> None:
        """Gray failure: ``name`` stays alive and correct, but every message
        it sends or receives takes ``extra_delay`` longer (inflated handler
        latency). 0 clears the fault."""
        if extra_delay < 0:
            raise ConfigurationError("slowdown must be >= 0")
        if extra_delay == 0:
            self._slowdowns.pop(name, None)
        else:
            self._slowdowns[name] = extra_delay

    def slowdown_of(self, name: str) -> float:
        return self._slowdowns.get(name, 0.0)

    def set_duplicate_probability(self, probability: float) -> None:
        """With this probability a message is delivered twice, the copy
        with an independently sampled latency."""
        self._check_probability(probability)
        self._duplicate_probability = probability

    def set_delay_spike(self, probability: float, magnitude: float) -> None:
        """With ``probability``, a message suffers an extra uniform(0,
        magnitude) delay — later messages overtake it, i.e. reordering."""
        self._check_probability(probability)
        if magnitude < 0:
            raise ConfigurationError("spike magnitude must be >= 0")
        self._spike_probability = probability
        self._spike_magnitude = magnitude

    def clear_faults(self) -> None:
        """Lift every network fault except crashed endpoints: partitions,
        loss (global and per-link), slowdowns, duplication, spikes."""
        self._partitions.clear()
        self._loss_probability = 0.0
        self._link_loss.clear()
        self._slowdowns.clear()
        self._duplicate_probability = 0.0
        self._spike_probability = 0.0
        self._spike_magnitude = 0.0

    def _delivery_blocked(self, src: str, dst: str) -> bool:
        if src in self._down or dst in self._down:
            return True
        if frozenset((src, dst)) in self._partitions:
            return True
        if self._loss_probability and self.scheduler.rng.random() < self._loss_probability:
            return True
        link_loss = self._link_loss.get((src, dst))
        return link_loss is not None and self.scheduler.rng.random() < link_loss

    # ------------------------------------------------------------------
    # Delivery

    def _delivery_time(self, src: str, dst: str, extra_delay: float, ordered: bool) -> float:
        rng = self.scheduler.rng
        latency = self.link.sample(rng) + extra_delay
        latency += self._slowdowns.get(src, 0.0) + self._slowdowns.get(dst, 0.0)
        spike = 0.0
        if self._spike_probability and rng.random() < self._spike_probability:
            spike = rng.uniform(0, self._spike_magnitude)
        if not ordered:
            return self.scheduler.now + (latency + spike)
        # The stream's tail is where this message would arrive unspiked; a
        # spike delays this message alone.
        link = (src, dst)
        at = max(self.scheduler.now + latency, self._stream_tails.get(link, 0.0))
        self._stream_tails[link] = at
        return at + spike

    def send(
        self,
        src: str,
        dst: str,
        payload: Any,
        extra_delay: float = 0.0,
        ordered: bool = False,
    ) -> None:
        """Fire-and-forget message. Loss and partitions silently drop — the
        sender learns nothing, exactly like UDP/broken TCP in the field.

        With ``ordered``, the message is delivered no earlier than the
        previous ordered message from ``src`` to ``dst`` (see the module
        docstring); the latency drawn for it, and every other RNG draw, is
        the same either way.

        The network never looks inside ``payload``: a consensus message
        arrives here already sealed (a
        :class:`~repro.net.channels.SealedMessage`), and whatever the host
        does to it in flight is for the receiver's channel to detect.
        """
        self.messages_sent += 1
        obs = self.scheduler.obs
        if obs is not None:
            obs.message_sent(src, dst, estimate_wire_size(payload))
        if src in self._down:
            return  # a crashed node sends nothing
        self._schedule_delivery(src, dst, payload, extra_delay, ordered)
        if (
            self._duplicate_probability
            and self.scheduler.rng.random() < self._duplicate_probability
        ):
            self.messages_duplicated += 1
            self._schedule_delivery(src, dst, payload, extra_delay, ordered)

    def _schedule_delivery(
        self, src: str, dst: str, payload: Any, extra_delay: float, ordered: bool
    ) -> None:
        at = self._delivery_time(src, dst, extra_delay, ordered)
        blocked_now = frozenset((src, dst)) in self._partitions

        def deliver() -> None:
            # Re-check receiver-side faults at delivery time: a node that
            # crashed in flight loses the message; a healed partition does
            # not resurrect messages sent while it was in force.
            obs = self.scheduler.obs
            if blocked_now or self._delivery_blocked(src, dst):
                if obs is not None:
                    obs.message_dropped(src, dst)
                return
            handler = self._handlers.get(dst)
            if handler is None:
                return  # destination no longer exists
            self.messages_delivered += 1
            if obs is not None:
                obs.message_delivered(src, dst)
            handler(src, payload)

        self.scheduler.at(at, deliver)
