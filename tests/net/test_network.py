"""Delivery order on the simulated network.

An ``ordered`` message travels on its directed link's stream: it arrives
no earlier than the previous ordered message from the same sender to the
same receiver. These tests pin that rule, show that unordered sends are
untouched by it (same delivery times, same RNG draws), that a delay spike
still lets later frames overtake a spiked one, and that a duplicate
arrives after its original, where the channel's watermark drops it.
"""

from __future__ import annotations

import random

from repro.crypto.x25519 import DHPrivateKey
from repro.net.channels import NodeChannels
from repro.net.network import LinkConfig, Network
from repro.obs.metrics import RUNTIME_STATS
from repro.sim.scheduler import Scheduler

SEED = 5
# Jitter far wider than the spacing of the sends, so unordered messages
# overtake each other often.
LINK = LinkConfig(base_latency=0.00025, jitter=0.0002)


def network(seed: int = SEED) -> tuple[Scheduler, Network, list]:
    """A network with one receiver ``b`` that logs (time, src, payload)."""
    scheduler = Scheduler(seed=seed)
    net = Network(scheduler, LINK)
    arrivals: list = []
    net.register("b", lambda src, payload: arrivals.append((scheduler.now, src, payload)))
    return scheduler, net, arrivals


def send_spaced(scheduler: Scheduler, net: Network, count: int, ordered: bool) -> None:
    """Send ``count`` messages a -> b, 10 µs apart, then run to quiescence."""
    for i in range(count):
        scheduler.at(i * 0.00001, lambda i=i: net.send("a", "b", i, ordered=ordered))
    scheduler.run_until(1.0)


def test_ordered_frames_on_one_link_arrive_in_send_order_under_jitter():
    scheduler, net, arrivals = network()
    send_spaced(scheduler, net, 200, ordered=True)
    assert [payload for _t, _src, payload in arrivals] == list(range(200))

    # The same sends unordered do overtake each other: the rule above is
    # what keeps them in order.
    scheduler, net, arrivals = network()
    send_spaced(scheduler, net, 200, ordered=False)
    received = [payload for _t, _src, payload in arrivals]
    assert sorted(received) == list(range(200))
    assert received != list(range(200))


def test_ordering_is_per_directed_link():
    scheduler, net, arrivals = network()
    for i in range(50):
        for src in ("a", "c"):
            scheduler.at(i * 0.00001, lambda i=i, src=src: net.send(src, "b", i, ordered=True))
    scheduler.run_until(1.0)
    for src in ("a", "c"):
        assert [p for _t, s, p in arrivals if s == src] == list(range(50))
    # The two streams interleave: one link's tail does not hold the other.
    senders = [s for _t, s, _p in arrivals]
    assert senders != ["a"] * 50 + ["c"] * 50 and senders != ["c"] * 50 + ["a"] * 50


def test_unordered_sends_keep_their_exact_delivery_times_and_rng_draws():
    scheduler, net, arrivals = network()
    send_spaced(scheduler, net, 100, ordered=False)

    # Each unordered message arrives at send time + base + one uniform
    # jitter draw, drawn in send order from the scheduler's seeded RNG.
    twin = random.Random(SEED)
    expected = sorted(
        (i * 0.00001 + (LINK.base_latency + twin.uniform(0, LINK.jitter)), i)
        for i in range(100)
    )
    assert [(t, p) for t, _src, p in arrivals] == expected
    assert scheduler.rng.getstate() == twin.getstate()


def test_ordered_and_unordered_sends_draw_the_same_rng_values_under_faults():
    """Ordering draws nothing: with duplication and spikes armed (drawn at
    send time), both kinds of send consume the scheduler's RNG alike and
    deliver the same copies."""
    runs = []
    for ordered in (False, True):
        scheduler, net, arrivals = network()
        net.set_duplicate_probability(0.3)
        net.set_delay_spike(0.3, 0.001)
        send_spaced(scheduler, net, 100, ordered=ordered)
        runs.append((scheduler.rng.getstate(), sorted(p for _t, _s, p in arrivals)))
    assert runs[0] == runs[1]
    assert len(runs[0][1]) > 100  # some copies were duplicated


def test_a_spiked_ordered_frame_is_overtaken_and_holds_no_later_frame_back():
    scheduler, net, arrivals = network()
    net.set_delay_spike(0.99, 0.01)
    net.send("a", "b", "spiked", ordered=True)
    net.set_delay_spike(0.0, 0.0)
    scheduler.run_until(0.00001)
    for i in range(3):
        net.send("a", "b", i, ordered=True)
    scheduler.run_until(1.0)

    assert [p for _t, _s, p in arrivals] == [0, 1, 2, "spiked"]
    # The later frames arrive within one link latency of being sent: the
    # spike delayed its own frame, not the stream.
    for t, _s, p in arrivals[:3]:
        assert t <= 0.00001 + LINK.base_latency + LINK.jitter
    assert arrivals[3][0] > 0.00001 + LINK.base_latency + LINK.jitter


def test_a_duplicate_arrives_after_its_original_and_the_watermark_drops_it():
    alpha = NodeChannels("a", DHPrivateKey.generate(b"network-a"))
    beta = NodeChannels("b", DHPrivateKey.generate(b"network-b"))
    alpha.establish("b", beta.public)
    beta.establish("a", alpha.public)

    scheduler = Scheduler(seed=SEED)
    net = Network(scheduler, LINK)
    opened: list[bytes] = []
    delivered: list[int] = []

    def on_frame(src, sealed) -> None:
        delivered.append(sealed.counter)
        frames = beta.open_frame(src, sealed.counter, sealed.box)
        if frames is not None:
            opened.extend(frames)

    net.register("b", on_frame)
    net.set_duplicate_probability(0.5)
    for i in range(60):
        frame = alpha.seal_frame("b", [f"frame {i}".encode()])
        scheduler.at(i * 0.00001, lambda frame=frame: net.send("a", "b", frame, ordered=True))
    scheduler.run_until(1.0)

    duplicates = net.messages_duplicated
    assert duplicates > 10
    # Every copy arrives after its original and before the next frame.
    assert delivered == sorted(delivered)
    assert len(delivered) == 60 + duplicates
    assert opened == [f"frame {i}".encode() for i in range(60)]
    assert RUNTIME_STATS.get("channel.frames.replay_dropped") == duplicates
