"""Span-attributed cost profiling: where did a request's latency go?

The cost model (:mod:`repro.perf.costmodel`) charges simulated seconds for
execution, signing, forwarding, and replication; the collector attributes
each charge to the span that incurred it. This module folds a trace into
per-request profiles and answers the paper-evaluation question directly:
"the p99 request spent 61% of its latency waiting on replication and 22%
on signing" (Figures 7–8 are exactly such decompositions).

Categories (charged by the instrumentation sites):

- ``execution``        worker service time for the request
- ``queue_wait``       time queued behind other requests on the worker pool
- ``signing``          signature-transaction cost triggered by this request
- ``replication_wait`` append -> primary-commit wait for the request's seqno
- ``forwarding``       backup -> primary forwarding cost

The categories are exclusive: each stretch of a request's latency counts
once. A charge sits on the request's timeline from its span's start
(``queue_wait`` ends there instead), clipped to the request's submit ..
response. ``replication_wait`` is a wait, not work, so it takes only what
no other category already holds: the part of the commit wait before the
response that was not spent signing. Whatever no charge covers (network
latency, heartbeat alignment) is reported as ``uncharged``, so a request's
categories and ``uncharged`` sum to its latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import nearest_rank
from repro.obs.spans import Span


@dataclass
class TraceProfile:
    """One completed request: its latency and cost attribution."""

    trace_id: str
    latency: float
    start: float
    costs: dict[str, float] = field(default_factory=dict)
    path: str = ""
    client: str = ""
    status: int = 0
    n_spans: int = 0
    uncharged: float = 0.0

    @property
    def charged(self) -> float:
        return sum(self.costs.values())

    def fractions(self) -> dict[str, float]:
        """category -> fraction of latency, including ``uncharged``."""
        if self.latency <= 0:
            return {}
        out = {
            category: seconds / self.latency
            for category, seconds in sorted(self.costs.items())
        }
        if self.uncharged > 0:
            out["uncharged"] = self.uncharged / self.latency
        return out

    def to_dict(self) -> dict:
        return {
            "trace": self.trace_id,
            "latency": self.latency,
            "start": self.start,
            "costs": dict(sorted(self.costs.items())),
            "path": self.path,
            "status": self.status,
            "spans": self.n_spans,
        }


class ProfileReport:
    """All completed requests of one trace, sorted by latency."""

    def __init__(self, profiles: list[TraceProfile]):
        self.profiles = sorted(profiles, key=lambda p: (p.latency, p.trace_id))
        self._latencies = [p.latency for p in self.profiles]

    @property
    def count(self) -> int:
        return len(self.profiles)

    def mean_latency(self) -> float:
        if not self.profiles:
            return 0.0
        return sum(self._latencies) / len(self._latencies)

    def percentile(self, p: float) -> float:
        return nearest_rank(self._latencies, p)

    def profile_at(self, p: float) -> TraceProfile | None:
        """The request sitting at the p-th percentile (nearest rank)."""
        if not self.profiles:
            return None
        target = self.percentile(p)
        for profile in self.profiles:
            if profile.latency == target:
                return profile
        return self.profiles[-1]

    def aggregate_costs(self) -> dict[str, float]:
        """Total simulated seconds per category across all requests."""
        totals: dict[str, float] = {}
        for profile in self.profiles:
            for category, seconds in profile.costs.items():
                totals[category] = totals.get(category, 0.0) + seconds
        return dict(sorted(totals.items()))

    def to_dict(self) -> dict:
        p99 = self.profile_at(99)
        return {
            "requests": self.count,
            "latency": {
                "mean": self.mean_latency(),
                "p50": self.percentile(50),
                "p99": self.percentile(99),
                "max": self._latencies[-1] if self._latencies else 0.0,
            },
            "aggregate_costs": self.aggregate_costs(),
            "p99_breakdown": p99.fractions() if p99 is not None else {},
        }

    def format_text(self) -> str:
        lines = [
            f"requests: {self.count}  "
            f"mean {self.mean_latency() * 1e3:.3f}ms  "
            f"p50 {self.percentile(50) * 1e3:.3f}ms  "
            f"p99 {self.percentile(99) * 1e3:.3f}ms"
        ]
        for label, p in (("p50", 50), ("p99", 99)):
            profile = self.profile_at(p)
            if profile is None:
                continue
            parts = ", ".join(
                f"{category} {fraction:.0%}"
                for category, fraction in profile.fractions().items()
            )
            lines.append(
                f"{label} request ({profile.latency * 1e3:.3f}ms, "
                f"{profile.path}): {parts}"
            )
        totals = self.aggregate_costs()
        if totals:
            parts = ", ".join(
                f"{category} {seconds * 1e3:.3f}ms"
                for category, seconds in totals.items()
            )
            lines.append(f"aggregate cost: {parts}")
        return "\n".join(lines)


def _claim(covered: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Add ``[lo, hi)`` to ``covered`` (intervals sorted by start) and
    return the length of its part no earlier interval covered."""
    free, cursor = 0.0, lo
    for start, end in covered:
        if start >= hi:
            break
        if end <= cursor:
            continue
        if start > cursor:
            free += start - cursor
        cursor = end
        if cursor >= hi:
            break
    if cursor < hi:
        free += hi - cursor
    covered.append((lo, hi))
    covered.sort()
    return free


def _exclusive_costs(root: Span, charged: list[Span]) -> tuple[dict[str, float], float]:
    """Per-category time of one request, each stretch counted once, and
    the time no charge covers."""
    begin, end = root.start, root.end
    pieces = []
    for span in charged:
        start = span.start
        for category, seconds in span.costs.items():
            if category == "queue_wait":
                lo, hi = start - seconds, start
            else:
                lo, hi = start, start + seconds
            # The wait ranks last: it takes only time no work holds.
            pieces.append((
                category == "replication_wait", category,
                lo if lo > begin else begin, hi if hi < end else end,
            ))
    pieces.sort()
    covered: list[tuple[float, float]] = []
    costs: dict[str, float] = {}
    for _wait, category, lo, hi in pieces:
        costs[category] = costs.get(category, 0.0) + (
            _claim(covered, lo, hi) if hi > lo else 0.0
        )
    return costs, _claim(covered, begin, end)


def profile_spans(spans: list[Span]) -> ProfileReport:
    """Fold a span list into per-request profiles. Only completed ``request``
    roots count; their trace's spans contribute cost charges."""
    charged_by_trace: dict[str, list[Span]] = {}
    spans_by_trace: dict[str, int] = {}
    requests = []
    for span in spans:
        trace = span.trace_id
        spans_by_trace[trace] = spans_by_trace.get(trace, 0) + 1
        if span.costs:
            charged = charged_by_trace.get(trace)
            if charged is None:
                charged_by_trace[trace] = [span]
            else:
                charged.append(span)
        if span.name == "request" and span.parent_id is None:
            requests.append(span)

    profiles = []
    for span in requests:
        if span.end is None or span.attrs.get("detached"):
            continue  # unanswered, or closed at detach time: no real latency
        costs, uncharged = _exclusive_costs(
            span, charged_by_trace.get(span.trace_id, [])
        )
        profiles.append(
            TraceProfile(
                trace_id=span.trace_id,
                latency=span.duration,
                start=span.start,
                costs=costs,
                path=span.attrs.get("path", ""),
                client=span.attrs.get("client", ""),
                status=span.attrs.get("status", 0),
                n_spans=spans_by_trace.get(span.trace_id, 0),
                uncharged=uncharged,
            )
        )
    return ProfileReport(profiles)
