"""The metrics registry: counters, gauges, and simulated-time histograms.

Benchmarks and chaos runs used to collect numbers in ad-hoc lists scattered
over the harness; this module replaces those with one deterministic registry
keyed by ``(metric name, sorted label pairs)``. Labels carry the node id so
per-node breakdowns (queue depths, elections, bytes on the wire) come for
free, and every export is sorted so equal runs produce byte-identical
snapshots.

Nothing here reads a clock or draws randomness: all observed values are
simulated-time quantities supplied by the instrumentation sites, which keeps
the registry compatible with the determinism discipline (DESIGN.md) — a run
with metrics attached is the same run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError

LabelPairs = tuple[tuple[str, str], ...]


def nearest_rank(sorted_values: list[float], p: float) -> float:
    """The p-th percentile of ``sorted_values`` by the nearest-rank method.

    ``p`` is in [0, 100]. Nearest-rank is the textbook definition: the
    percentile is the smallest value such that at least ``p``% of samples
    are <= it — always an actual sample, never an interpolation, and free
    of the banker's-rounding ambiguity that ``round()`` introduces (p50 of
    two samples is the *first*, deterministically).
    """
    if not sorted_values:
        return 0.0
    if not 0.0 <= p <= 100.0:
        raise ConfigurationError(f"percentile must be in [0, 100], got {p}")
    if p == 0.0:
        return sorted_values[0]
    rank = math.ceil(p / 100.0 * len(sorted_values))  # 1-based
    return sorted_values[rank - 1]


@dataclass
class Counter:
    """A monotonically increasing count (events, messages, bytes)."""

    name: str
    labels: LabelPairs = ()
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError("counters only go up")
        self.value += amount


@dataclass
class Gauge:
    """A point-in-time level (queue depth, version, open spans)."""

    name: str
    labels: LabelPairs = ()
    value: float = 0.0
    max_value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def add(self, delta: float) -> None:
        self.set(self.value + delta)


@dataclass
class Histogram:
    """A distribution of simulated-time samples (latencies, batch sizes).

    Samples are kept raw and sorted lazily, so ``observe`` is O(1) on the
    hot path and all statistics are exact (nearest-rank percentiles over
    the actual samples, not bucket approximations).
    """

    name: str
    labels: LabelPairs = ()
    samples: list[float] = field(default_factory=list)
    _sorted: list[float] | None = field(default=None, repr=False)

    def observe(self, value: float) -> None:
        self.samples.append(value)
        self._sorted = None

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        return sum(self.samples)

    def mean(self) -> float:
        return self.total / len(self.samples) if self.samples else 0.0

    def _sorted_samples(self) -> list[float]:
        if self._sorted is None:
            self._sorted = sorted(self.samples)
        return self._sorted

    def percentile(self, p: float) -> float:
        return nearest_rank(self._sorted_samples(), p)

    def min(self) -> float:
        values = self._sorted_samples()
        return values[0] if values else 0.0

    def max(self) -> float:
        values = self._sorted_samples()
        return values[-1] if values else 0.0

    def buckets(self, width: float) -> dict[float, int]:
        """Fixed-width bucket counts (bucket floor -> count), sorted."""
        if width <= 0:
            raise ConfigurationError("bucket width must be positive")
        counts: dict[float, int] = {}
        for value in self.samples:
            # ``value // width`` floors 0.03/0.01 = 2.999… into the wrong
            # bucket; round the quotient to 9 decimals before flooring so
            # exact multiples land on their own boundary.
            index = math.floor(round(value / width, 9))
            key = round(index * width, 9)
            counts[key] = counts.get(key, 0) + 1
        return dict(sorted(counts.items()))

    def summary(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean(),
            "p50": self.percentile(50),
            "p99": self.percentile(99),
            "max": self.max(),
        }


def _label_key(labels: dict[str, str]) -> LabelPairs:
    # Labels appear verbatim in exported snapshots, which the untrusted
    # host can read: byte values (key material) are redacted, never
    # str()'d into the label.
    from repro.obs.spans import redact

    return tuple(sorted((str(k), str(redact(v))) for k, v in labels.items()))


def format_metric(name: str, labels: LabelPairs) -> str:
    if not labels:
        return name
    rendered = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{rendered}}}"


class MetricsRegistry:
    """All metrics of one run, keyed by (name, labels).

    ``counter`` / ``gauge`` / ``histogram`` create on first use and return
    the same instrument afterwards; a name cannot change kinds. Export is
    sorted by the rendered metric name, so two equal runs snapshot to the
    same dict (and the same JSON bytes).
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, LabelPairs], Counter | Gauge | Histogram] = {}
        # (kind, name, *labels as passed) -> instrument: a hook that fires
        # per event finds its instrument without redacting and sorting
        # its labels again.
        self._handles: dict[tuple, Counter | Gauge | Histogram] = {}

    def _get(self, kind: type, name: str, labels: dict[str, str]):
        handle = (kind, name, *labels.items())
        metric = self._handles.get(handle)
        if metric is not None:
            return metric
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = kind(name=name, labels=key[1])
            self._metrics[key] = metric
        elif not isinstance(metric, kind):
            raise ConfigurationError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        # Only str values key a handle: 1, 1.0 and True are one dict key
        # but three different labels.
        if all(type(value) is str for value in labels.values()):
            self._handles[handle] = metric
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: str) -> Histogram:
        return self._get(Histogram, name, labels)

    def __len__(self) -> int:
        return len(self._metrics)

    def collect(self, prefix: str = "") -> dict[str, Counter | Gauge | Histogram]:
        """Instruments whose name starts with ``prefix``, keyed by rendered
        name, in sorted order."""
        out = {
            format_metric(name, labels): metric
            for (name, labels), metric in self._metrics.items()
            if name.startswith(prefix)
        }
        return dict(sorted(out.items()))

    def snapshot(self) -> dict[str, object]:
        """A deterministic, JSON-ready dump of every instrument."""
        out: dict[str, object] = {}
        for rendered, metric in self.collect().items():
            if isinstance(metric, Counter):
                out[rendered] = metric.value
            elif isinstance(metric, Gauge):
                out[rendered] = {"value": metric.value, "max": metric.max_value}
            else:
                out[rendered] = metric.summary()
        return out


class RuntimeStats:
    """Process-global *host-side* counters for fast-path instrumentation.

    These count wall-clock work the host actually performed — cache hits,
    AEAD seals, frames rejected — never simulated-time quantities, and
    nothing in the simulation may branch on them (they are observability
    only, so a run with different counter values is still the same run).

    They used to live as ad-hoc module-global dicts next to each fast path
    (e.g. ``repro.net.channels.CHANNEL_STATS``), which bled across tests and
    across the two halves of a differential chaos replay. This registry
    keeps them in one place with an explicit :meth:`reset`, called at the
    start of every chaos schedule, traced benchmark run, and test (see
    ``tests/conftest.py``) so counts are attributable to one run.
    """

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}

    def inc(self, name: str, amount: int = 1) -> None:
        self._counts[name] = self._counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def snapshot(self) -> dict[str, int]:
        return dict(sorted(self._counts.items()))

    def reset(self) -> None:
        self._counts.clear()


RUNTIME_STATS = RuntimeStats()


def reset_runtime_stats() -> None:
    """Zero every process-global runtime counter (start of a run)."""
    RUNTIME_STATS.reset()
