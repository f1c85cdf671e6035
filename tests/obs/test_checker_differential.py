"""Seeded mutation differential: the trace checker against the whole-state
oracle (``tests/oracles/trace_checker.py``).

Real traces — three fault-injected chaos schedules and one short write
load — are mutated one event at a time (seqno and view nudged, the
signature bit flipped, the event moved to another node, dropped or
duplicated), and both checkers must return the same
``(violation, events_checked, states_checked, has_gaps, nodes)`` — except
the wording of one verdict, see ``_reword_gap_flip``.

A mutant at event ``p`` shares its first ``p`` events with the real trace,
so both checkers are fed that prefix once and copied at each mutation
point; each copy then sees the mutated event and the next ``WINDOW``
events.
"""

from __future__ import annotations

import copy
import dataclasses
import random
import re

import pytest

from repro.app.logging_app import build_logging_app
from repro.node.config import NodeConfig
from repro.obs import ObsCollector
from repro.obs.checker import EVENT_NAMES, TraceChecker, check_trace
from repro.service.service import ServiceSetup, bootstrap_service
from repro.sim.chaos import ChaosEngine, ChaosSpec
from tests.oracles.trace_checker import WholeStateChecker, check_trace_whole_state

WINDOW = 150
MUTANTS_PER_TRACE = 120
_GAP_FLIP = re.compile(
    r"\[span \d+ ledger\.append node=\S+\] node \d+: commit regressed \d+ -> 0$"
)
KINDS = (
    "seqno+1", "seqno-1", "seqno+2", "seqno-2",
    "view+1", "view-1", "sig", "move", "drop", "duplicate",
)


def _chaos_trace(seed: int) -> list:
    collector = ObsCollector(seed=seed)
    spec = ChaosSpec(steps=4, p_crash=0.4, p_partition=0.3)
    ChaosEngine(spec).run_schedule(seed, obs=collector)
    return collector.spans


def _write_load_trace() -> list:
    collector = ObsCollector(seed=5)
    setup = ServiceSetup(
        n_nodes=3,
        node_config=NodeConfig(signature_interval=10, signature_flush_time=0.01),
        app_factory=build_logging_app,
        seed=5,
    )
    service = bootstrap_service(setup, obs=collector)
    user = service.users[0]
    credentials = {"certificate": user.certificate.to_dict()}
    client = service.any_user_client()
    for i in range(20):
        response = client.call(
            service.primary_node().node_id,
            "/app/write_message",
            {"id": i, "msg": f"msg-{i:02d}"},
            credentials=credentials,
        )
        assert response.ok, response.error
    service.run(0.2)
    return collector.spans


@pytest.fixture(scope="module")
def traces() -> dict[str, list]:
    out = {f"chaos-{seed}": _chaos_trace(seed) for seed in range(3)}
    out["write-load"] = _write_load_trace()
    return {
        name: [s for s in spans if s.name in EVENT_NAMES and s.node is not None]
        for name, spans in out.items()
    }


def _applicable(span, kind: str) -> bool:
    if kind.startswith("seqno"):
        return "seqno" in span.attrs
    if kind.startswith("view"):
        return "view" in span.attrs
    if kind == "sig":
        return span.name == "ledger.append"
    return True


def _mutate(events: list, p: int, kind: str, nodes: list[str], rng) -> list:
    """Events ``p`` onward with event ``p`` mutated."""
    span = events[p]
    tail = events[p + 1:]
    if kind == "drop":
        return tail
    if kind == "duplicate":
        return [span, span] + tail
    attrs = dict(span.attrs)
    node = span.node
    if kind.startswith("seqno"):
        attrs["seqno"] += int(kind[5:])
    elif kind.startswith("view"):
        attrs["view"] += int(kind[4:])
    elif kind == "sig":
        attrs["sig"] = not attrs.get("sig", False)
    elif kind == "move":
        node = rng.choice([n for n in nodes if n != span.node])
    return [dataclasses.replace(span, attrs=attrs, node=node)] + tail


def _outcome(result) -> tuple:
    return (
        result.violation,
        result.events_checked,
        result.states_checked,
        result.has_gaps,
        list(result.nodes),
    )


def _reword_gap_flip(oracle: WholeStateChecker, span) -> bool:
    """The one deliberate difference. When a node already in the trace
    skips seqnos while commits exist, the oracle zeroes every
    commit and blames the first node with one ("node 0: commit regressed
    1 -> 0"), whoever appended; the checker names the appending node."""
    violation = oracle.result.violation
    if violation is None or not _GAP_FLIP.match(violation):
        return False
    prefix = violation.split("] ", 1)[0]
    log_length = len(oracle._nodes[span.node].log)
    oracle.result.violation = (
        f"{prefix}] {span.node}: append at seqno {span.attrs['seqno']} "
        f"skips past observed log length {log_length}"
    )
    return True


def _mutants(events: list, seed: int):
    """(position, kind) pairs, sorted by position."""
    rng = random.Random(seed)
    picked = set()
    while len(picked) < min(MUTANTS_PER_TRACE, len(events) * 4):
        p = rng.randrange(len(events))
        kind = rng.choice(KINDS)
        if _applicable(events[p], kind):
            picked.add((p, kind))
    return sorted(picked)


def _differential(events: list, seed: int) -> tuple[int, int, int]:
    """Run every mutant of ``events`` through both checkers; returns
    (mutants, rejected by the oracle, gap flips reworded)."""
    nodes = sorted({span.node for span in events})
    rng = random.Random(seed + 1)
    oracle, fast = WholeStateChecker(), TraceChecker()
    fed = 0
    mutants = rejected = reworded = 0
    for p, kind in _mutants(events, seed):
        for span in events[fed:p]:
            oracle.feed(span)
            fast.feed(span)
        fed = p
        assert oracle.result.ok
        mutated = _mutate(events, p, kind, nodes, rng)[:WINDOW]
        want, got = copy.deepcopy(oracle), copy.deepcopy(fast)
        for span in mutated:
            want.feed(span)
            got.feed(span)
            if want.result.violation is not None:
                break
        reworded += _reword_gap_flip(want, span)
        assert _outcome(got.result) == _outcome(want.result), (p, kind)
        mutants += 1
        rejected += not want.result.ok
    return mutants, rejected, reworded


def test_unmutated_traces_agree_and_conform(traces):
    for name, events in traces.items():
        want = check_trace_whole_state(events)
        assert want.ok, (name, want.describe())
        assert _outcome(check_trace(events)) == _outcome(want), name


def test_mutants_get_the_oracles_verdict(traces):
    totals = [0, 0, 0]
    for seed, events in enumerate(traces.values()):
        for i, count in enumerate(_differential(events, seed)):
            totals[i] += count
    mutants, rejected, reworded = totals
    assert mutants >= 300
    assert rejected >= 200
    assert 0 < reworded < rejected
