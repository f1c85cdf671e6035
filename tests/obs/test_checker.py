"""Tests for the trace conformance checker (repro.obs.checker).

Synthetic traces pin the violation detectors one by one and hold the
checker to linear cost; the chaos tests replay fault-injected schedules'
traces through the checker and require model conformance end to end.
"""

from __future__ import annotations

import time

import pytest

from repro.obs import ObsCollector
from repro.obs.checker import EVENT_NAMES, check_trace, check_trace_text
from repro.obs.spans import Span, export_jsonl
from repro.sim.chaos import ChaosEngine, ChaosSpec


def _event(index: int, name: str, node: str, **attrs) -> Span:
    assert name in EVENT_NAMES
    span = Span(
        index=index,
        span_id=f"s{index:04d}",
        name=name,
        start=float(index),
        trace_id=f"s{index:04d}",
        node=node,
        attrs=attrs,
    )
    span.end = span.start
    return span


def _bootstrap_events(node: str = "n0", start: int = 0) -> list[Span]:
    return [
        _event(start, "consensus.become_primary", node, view=1),
        _event(start + 1, "ledger.append", node, view=1, seqno=1, kind="signature", sig=True),
        _event(start + 2, "consensus.commit", node, view=1, seqno=1),
    ]


class TestConformantTraces:
    def test_empty_trace_is_ok(self):
        result = check_trace([])
        assert result.ok
        assert result.events_checked == 0

    def test_simple_primary_lifecycle(self):
        spans = _bootstrap_events()
        spans += [
            _event(3, "ledger.append", "n0", view=1, seqno=2, kind="user", sig=False),
            _event(4, "ledger.append", "n0", view=1, seqno=3, kind="signature", sig=True),
            _event(5, "consensus.commit", "n0", view=1, seqno=3),
        ]
        result = check_trace(spans)
        assert result.ok, result.describe()
        assert result.events_checked == 6
        assert not result.has_gaps

    def test_rollback_after_election_is_allowed(self):
        spans = _bootstrap_events()
        spans += [
            _event(3, "ledger.append", "n0", view=1, seqno=2, kind="user", sig=False),
            # Uncommitted suffix rolled back on a new view: legal.
            _event(4, "ledger.truncate", "n0", seqno=1),
            _event(5, "consensus.election", "n0", view=2),
            _event(6, "consensus.step_down", "n0", view=2),
        ]
        result = check_trace(spans)
        assert result.ok, result.describe()

    def test_gapped_trace_degrades_gracefully(self):
        # Mid-run attach: first observed append is at seqno 100.
        spans = [
            _event(0, "ledger.append", "n3", view=2, seqno=100, kind="user", sig=False),
            _event(1, "consensus.commit", "n3", view=2, seqno=100),
        ]
        result = check_trace(spans)
        assert result.ok, result.describe()
        assert result.has_gaps
        assert "gapped" in result.describe()

    def test_non_event_spans_are_ignored(self):
        request = Span(index=0, span_id="r0", name="request", start=0.0, trace_id="r0")
        result = check_trace([request] + _bootstrap_events(start=1))
        assert result.ok
        assert result.events_checked == 3


class TestViolations:
    def test_two_primaries_in_one_view(self):
        spans = _bootstrap_events("n0") + [
            _event(10, "consensus.become_primary", "n1", view=1),
        ]
        result = check_trace(spans)
        assert not result.ok
        assert "two primaries in view 1" in result.violation

    def test_commit_regression(self):
        spans = _bootstrap_events() + [
            _event(3, "ledger.append", "n0", view=1, seqno=2, kind="signature", sig=True),
            _event(4, "consensus.commit", "n0", view=1, seqno=2),
            _event(5, "consensus.commit", "n0", view=1, seqno=1),
        ]
        result = check_trace(spans)
        assert not result.ok
        assert "commit regressed" in result.violation

    def test_truncate_below_commit(self):
        spans = _bootstrap_events() + [
            _event(3, "ledger.truncate", "n0", seqno=0),
        ]
        result = check_trace(spans)
        assert not result.ok
        assert "below commit" in result.violation

    def test_commit_beyond_observed_log(self):
        spans = _bootstrap_events() + [
            _event(3, "consensus.commit", "n0", view=1, seqno=9),
        ]
        result = check_trace(spans)
        assert not result.ok
        assert "beyond observed log" in result.violation

    def test_append_without_truncate(self):
        spans = _bootstrap_events() + [
            _event(3, "ledger.append", "n0", view=1, seqno=1, kind="user", sig=False),
        ]
        result = check_trace(spans)
        assert not result.ok
        assert "no truncate observed" in result.violation

    def test_committed_prefix_divergence_across_nodes(self):
        spans = _bootstrap_events("n0")
        spans += [
            # n1 commits a *different* entry at seqno 1 (sig=False).
            _event(10, "ledger.append", "n1", view=1, seqno=1, kind="user", sig=False),
            _event(11, "consensus.commit", "n1", view=1, seqno=1),
        ]
        result = check_trace(spans)
        assert not result.ok
        assert "disagree" in result.violation

    def test_seen_node_skipping_seqnos_names_the_appending_node(self):
        spans = _bootstrap_events("n0") + [
            _event(3, "ledger.append", "n1", view=1, seqno=1, kind="signature", sig=True),
            _event(4, "ledger.append", "n1", view=1, seqno=5, kind="user", sig=False),
        ]
        result = check_trace(spans)
        assert result.violation == (
            "[span 4 ledger.append node=n1] "
            "n1: append at seqno 5 skips past observed log length 1"
        )

    def test_violation_names_the_span(self):
        spans = _bootstrap_events() + [
            _event(3, "consensus.commit", "n0", view=1, seqno=9),
        ]
        result = check_trace(spans)
        assert "[span 3 consensus.commit node=n0]" in result.violation


class TestLinearCost:
    def test_fifty_thousand_appends_check_in_linear_time(self):
        # 10,000 entries on each of five nodes, a signature every 20, and
        # every node commits at each signature: a whole-state check per
        # event would re-slice every log 52,501 times.
        nodes = [f"n{i}" for i in range(5)]
        spans = [_event(0, "consensus.become_primary", "n0", view=1)]
        for seqno in range(1, 10_001):
            sig = seqno % 20 == 0
            kind = "signature" if sig else "user"
            for node in nodes:
                spans.append(
                    _event(len(spans), "ledger.append", node,
                           view=1, seqno=seqno, kind=kind, sig=sig)
                )
            if sig:
                for node in nodes:
                    spans.append(
                        _event(len(spans), "consensus.commit", node, view=1, seqno=seqno)
                    )
        started = time.perf_counter()
        result = check_trace(spans)
        elapsed = time.perf_counter() - started
        assert result.ok, result.describe()
        assert result.events_checked == len(spans) == 52_501
        assert elapsed < 5.0, f"{elapsed:.2f} s"


class TestRoundTrip:
    def test_check_trace_text_round_trips_through_jsonl(self):
        spans = _bootstrap_events() + [
            _event(3, "ledger.append", "n0", view=1, seqno=2, kind="signature", sig=True),
            _event(4, "consensus.commit", "n0", view=1, seqno=2),
        ]
        text = export_jsonl(spans)
        result = check_trace_text(text)
        assert result.ok, result.describe()
        assert result.events_checked == 5

    def test_empty_text_is_ok(self):
        assert check_trace_text("").ok


class TestChaosConformance:
    @pytest.mark.slow
    def test_fault_injected_schedule_yields_conformant_trace(self):
        collector = ObsCollector(seed=2)
        spec = ChaosSpec(steps=4, p_crash=0.4, p_partition=0.3)
        report = ChaosEngine(spec).run_schedule(2, obs=collector)
        assert report.steps_run == 4
        assert len(collector.spans) > 100

        result = check_trace(collector.spans)
        assert result.ok, result.describe()
        assert result.events_checked > 50
        # Faults were actually injected and observed.
        assert report.fault_kinds, "schedule injected no faults"
        assert report.ok, report.fingerprint()

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(5))
    def test_chaos_smoke_schedule_yields_conformant_trace(self, seed):
        # The five default schedules CI's chaos-smoke job runs
        # (python -m repro.sim.chaos --schedules 5), each traced whole.
        collector = ObsCollector(seed=seed)
        report = ChaosEngine(ChaosSpec()).run_schedule(seed, obs=collector)
        assert report.ok, report.fingerprint()

        result = check_trace(collector.spans)
        assert result.ok, result.describe()
        assert not result.has_gaps
        assert result.events_checked > 1000
