"""Unit tests for the metrics registry (repro.obs.metrics)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    nearest_rank,
)


class TestNearestRank:
    def test_empty_is_zero(self):
        assert nearest_rank([], 50) == 0.0

    def test_single_sample(self):
        assert nearest_rank([3.0], 0) == 3.0
        assert nearest_rank([3.0], 50) == 3.0
        assert nearest_rank([3.0], 100) == 3.0

    def test_two_samples_p50_is_first(self):
        # The satellite fix: round() banker's rounding made p50 of two
        # samples return the *second*; nearest-rank (ceil) takes the first.
        assert nearest_rank([1.0, 2.0], 50) == 1.0

    def test_textbook_example(self):
        values = [15.0, 20.0, 35.0, 40.0, 50.0]
        assert nearest_rank(values, 30) == 20.0
        assert nearest_rank(values, 40) == 20.0
        assert nearest_rank(values, 50) == 35.0
        assert nearest_rank(values, 100) == 50.0

    def test_p0_is_minimum(self):
        assert nearest_rank([1.0, 2.0, 3.0], 0) == 1.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            nearest_rank([1.0], -1)
        with pytest.raises(ConfigurationError):
            nearest_rank([1.0], 101)


class TestInstruments:
    def test_counter(self):
        counter = Counter(name="c")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6
        with pytest.raises(ConfigurationError):
            counter.inc(-1)

    def test_gauge(self):
        gauge = Gauge(name="g")
        gauge.set(3.0)
        gauge.add(-1.0)
        assert gauge.value == 2.0
        gauge.set(9.0)
        gauge.set(4.0)
        assert gauge.max_value == 9.0

    def test_histogram_stats(self):
        hist = Histogram(name="h")
        for value in (5.0, 1.0, 3.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == 9.0
        assert hist.mean() == 3.0
        assert hist.min() == 1.0
        assert hist.max() == 5.0
        assert hist.percentile(50) == 3.0
        assert hist.percentile(99) == 5.0

    def test_histogram_sorted_cache_invalidation(self):
        hist = Histogram(name="h")
        hist.observe(2.0)
        assert hist.percentile(50) == 2.0
        hist.observe(1.0)  # must invalidate the sorted cache
        assert hist.percentile(50) == 1.0

    def test_histogram_buckets(self):
        hist = Histogram(name="h")
        for value in (0.1, 0.15, 0.34, 0.9):
            hist.observe(value)
        buckets = hist.buckets(0.5)
        assert buckets == {0.0: 3, 0.5: 1}

    def test_histogram_summary(self):
        hist = Histogram(name="h")
        hist.observe(1.0)
        summary = hist.summary()
        assert summary == {"count": 1, "mean": 1.0, "p50": 1.0, "p99": 1.0, "max": 1.0}


class TestRegistry:
    def test_same_name_and_labels_is_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("requests", node="n0")
        b = registry.counter("requests", node="n0")
        assert a is b
        c = registry.counter("requests", node="n1")
        assert c is not a

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ConfigurationError):
            registry.gauge("x")

    def test_label_order_and_repeat_calls_share_one_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("sent", node="n0", kind="ae")
        assert registry.counter("sent", kind="ae", node="n0") is a
        assert registry.counter("sent", node="n0", kind="ae") is a
        with pytest.raises(ConfigurationError):
            registry.gauge("sent", node="n0", kind="ae")

    def test_equal_values_of_different_types_stay_different_labels(self):
        registry = MetricsRegistry()
        registry.counter("c", code=1).inc()
        registry.counter("c", code=True).inc()
        registry.counter("c", code="1").inc()
        assert registry.snapshot() == {"c{code=1}": 2.0, "c{code=True}": 1.0}

    def test_collect_by_prefix(self):
        registry = MetricsRegistry()
        registry.counter("net.sent", node="n0").inc()
        registry.counter("net.sent", node="n1").inc(2)
        registry.gauge("kv.version", node="n0").set(7)
        names = list(registry.collect("net."))
        assert names == ["net.sent{node=n0}", "net.sent{node=n1}"]

    def test_snapshot_deterministic_and_sorted(self):
        def build() -> MetricsRegistry:
            registry = MetricsRegistry()
            registry.counter("b.counter", node="n1").inc(2)
            registry.counter("a.counter").inc()
            registry.histogram("h", node="n0").observe(1.5)
            registry.gauge("g").set(4.0)
            return registry

        first = build().snapshot()
        second = build().snapshot()
        assert first == second
        assert list(first.keys()) == sorted(first.keys())
