"""Span self-time arithmetic and the percentile helper, on synthetic data."""

import pytest

from benchmarks.e2e.loadgen import percentile, tail_rank
from benchmarks.e2e.tracing import Tracer


def _span(tracer: Tracer, name: str, group: str, start: int, end: int, parent: int) -> int:
    tracer.boundary.append(tracer.boundary_id(name, group))
    tracer.parent.append(parent)
    tracer.owner.append(0)
    tracer.start.append(start)
    tracer.end.append(end)
    return len(tracer.boundary) - 1


def test_self_time_is_duration_minus_children_and_sums_to_the_window():
    tracer = Tracer()
    tracer.window_ns = 1000
    # step [0, 600): handler [100, 500): encode [150, 250), seal [300, 450):
    # hash [320, 360). A second step [700, 900) with nothing inside.
    step = _span(tracer, "Scheduler.step", "sim", 0, 600, -1)
    handler = _span(tracer, "deliver:node", "node", 100, 500, step)
    _span(tracer, "serialization.encode_value", "kv.encode", 150, 250, handler)
    seal = _span(tracer, "FastAEADKey.seal", "crypto.aead", 300, 450, handler)
    _span(tracer, "hashing.sha256", "crypto.hash", 320, 360, seal)
    _span(tracer, "Scheduler.step", "sim", 700, 900, -1)

    summary = tracer.summarize()
    assert summary["self_ns"] == {
        "sim": (600 - 400) + 200,
        "node": 400 - 100 - 150,
        "kv.encode": 100,
        "crypto.aead": 150 - 40,
        "crypto.hash": 40,
    }
    assert summary["unattributed_ns"] == 1000 - 600 - 200
    assert sum(summary["self_ns"].values()) + summary["unattributed_ns"] == 1000
    assert summary["calls"]["Scheduler.step"] == 2
    assert summary["inclusive_ns"]["FastAEADKey.seal"] == 150
    assert summary["spans"] == 6


def test_same_boundary_nested_in_itself_counts_its_time_once():
    tracer = Tracer()
    tracer.window_ns = 100
    outer = _span(tracer, "Ledger.build_signature_entry", "ledger", 0, 100, -1)
    _span(tracer, "Ledger.build_entry", "ledger", 20, 70, outer)
    assert tracer.summarize()["self_ns"] == {"ledger": 100}


def test_tail_rank_keeps_ten_samples_beyond_the_reported_tail():
    assert tail_rank(1435, 99) == 1421  # ceil(0.99 * 1435): 14 beyond
    assert tail_rank(1000, 99) == 990  # exactly ten beyond
    assert tail_rank(360, 99) == 350  # p99 would leave 3: lowered
    assert tail_rank(360, 50) == 180
    for count in (11, 50, 360, 999, 1000, 5000):
        assert count - tail_rank(count, 99) >= 10
    with pytest.raises(ValueError):
        tail_rank(0, 99)


def test_percentile_is_nearest_rank():
    samples = [float(value) for value in range(1, 1001)]  # 1..1000
    assert percentile(samples, 50) == 500.0
    assert percentile(samples, 99) == 990.0
    assert percentile(list(reversed(samples)), 99) == 990.0
