"""Sim-neutrality pins: constants recorded from a known-good commit.

DESIGN.md's fast-path rule says a host-side optimization "may only change
host wall-clock — never an output byte, never a simulated-time charge,
never a trace event". The replay tests elsewhere compare a run with itself;
these compare it with *constants*, so a change that moves the simulation
fails here even if it moves it deterministically.

A PR that means to move the simulated clock (a message-schedule or
``CostModel`` change) updates the constants below, and only here:

    PYTHONPATH=src python tests/sim/test_neutrality_pins.py

prints the current values. A PR that only moves or renames scheduled code
re-records the label-bearing digests in ``CHAOS`` and ``DISASTER`` (the
recorder folds each callback's ``module.qualname``) and leaves
``CHAOS_LABEL_FREE``, the label-free digests and report fingerprints in
``DISASTER``, ``FIGURE_9`` and ``WRITE_LOAD`` as they are.
"""

import hashlib

import pytest

from repro.app.logging_app import build_logging_app
from repro.node.config import NodeConfig
from repro.service.client import ServiceClient
from repro.service.operator import Operator
from repro.service.service import CCFService, ServiceSetup
from repro.sim.chaos import ChaosEngine, ChaosSpec
from repro.sim.disaster import DisasterEngine, DisasterSpec
from repro.sim.trace import TraceRecorder, callback_label

# (spec, seed) -> (trace digest, sha256 of the schedule report's fingerprint).
# Every pin except FIGURE_9 was last re-recorded when the primary stopped
# re-sending unacknowledged entries: each append_entries carries only
# entries not yet sent to that peer, so the message schedule, the RNG
# latency draws that follow it and the resulting ledgers all moved.
CHAOS = [
    (
        "crashes",
        dict(steps=3, p_crash=0.3),
        5,
        "3060eced2ff702a2133499a7c5fc185000f12ea525b63eb6fff5ae914ea881e7",
        "44ee4f3461b804b2ae52b6f69a44aa65a69f03fbfef31512f776e4f297591ec0",
    ),
    (
        "three-nodes",
        dict(n_nodes=3, steps=2),
        3,
        "0776fedf870196f118a8d915fe26073e6efe6c1bc8db4c37d23afe40ea00ac29",
        "5f84c1c84ad78e2900c0f5f694a2137913351f4ed8712745ac995cfea1563300",
    ),
]



class LabelFreeRecorder(TraceRecorder):
    """Folds ``event|time|seq`` without the callback's ``module.qualname``
    (RNG draws and marks fold as they are), so moving or renaming scheduled
    code leaves the digest alone while any moved time, sequence number or
    draw still changes it."""

    def begin_event(self, time, seq, callback):
        self.labels.append(callback_label(callback))
        self._fold(f"event|{time!r}|{seq}".encode())


# The same three schedules under LabelFreeRecorder. A rename re-records the
# digests in CHAOS and must leave these alone.
CHAOS_LABEL_FREE = {
    "crashes": "2668bd2b94ddf88366196da267781a9f6e13bff2c68a1dbbf1fe0630a8396d37",
    "three-nodes": "f8e158942ebd49295f77f25b89ab4031da21da3914acde8f1bc316c308a4f31d",
}

# Disaster schedules are otherwise only ever compared with themselves
# (``--replay-check``): (spec, seed) -> (trace digest, label-free trace
# digest, sha256 of the report's fingerprint).
DISASTER = [
    (
        "default-0",
        dict(),
        0,
        "5404dfdeffa0034748adbad00f365cba9974467ac8d89704674f70e10d90dd43",
        "23e1370b398a1ef1fa84c61be683defad0ba0233507cd69e2eeb45c3938137a9",
        "96cd50537a271f0c95112244a3f4c508495398e1221d412c61e96921b86d1e34",
    ),
    (
        "default-3",
        dict(),
        3,
        "e94a5e419d329457635dce23d2c8bff5decda90c940a6f16a3902128536ef67e",
        "1f2be45181ee945166dd7ca80373970c87474395c101c69c3039679902e78edc",
        "5f4b40b30fdeb2f04fc7205f02ec375c5f814ab2bf1acfd77c9bd14f9398255e",
    ),
    (
        "six-settled-writes",
        dict(settled_writes=6),
        3,
        "7a75a95fa0fb511444aa37307be75974b8766fa7e4ee2384172ab3d7501180ae",
        "222561149a22dba54f61e5e0c6894fbbc8cea84999a19d31748ffba32692cb1b",
        "f8c4a2b6584c0ba6f243e47cd125db3432b584789fe126cf96de199112b6fd6a",
    ),
]

# Figure 9 marks (A, B, C, D, E in simulated seconds) of two replacements on
# one 3-node service: the primary, replaced while the election is still
# running, then a backup.
FIGURE_9 = [
    ("failure_detected", 0.12368318095368211),
    ("joined", 0.3886414541171379),
    ("proposal_submitted", 0.38933421189031875),
    ("proposal_accepted", 0.3907466020557113),
    ("reconfiguration_complete", 0.44094294801771394),
    ("failure_detected", 0.44094294801771394),
    ("joined", 0.44150137835280595),
    ("proposal_submitted", 0.4422279433053229),
    ("proposal_accepted", 0.4436210777776397),
    ("reconfiguration_complete", 0.49374967907471784),
]

# 5 nodes, 50 closed-loop writers on the primary for 0.02 sim-s, then drained.
_LEDGER_SHA256 = "e3a6d9599bd16b195528601cac836ad1da36a7959e28f49c6be6b582af148058"
WRITE_LOAD = {
    "ok_replies": 986,
    "primary_root": "8b5e8110fc5b196eaf4faaefa860565c703e13295682b5ed5a670d4b50013d74",
    "events_processed": 4192,
    "ledger_sha256": {node_id: _LEDGER_SHA256 for node_id in ("n0", "n1", "n2", "n3", "n4")},
}


def chaos_pin(spec: dict, seed: int, recorder=TraceRecorder) -> tuple[str, str]:
    tracer = recorder()
    report = ChaosEngine(ChaosSpec(**spec)).run_schedule(seed, tracer=tracer)
    return tracer.digest, hashlib.sha256(report.fingerprint().encode()).hexdigest()


def disaster_pin(spec: dict, seed: int) -> tuple[str, str, str]:
    digests = []
    for recorder in (TraceRecorder, LabelFreeRecorder):
        tracer = recorder()
        report = DisasterEngine(DisasterSpec(**spec)).run_schedule(seed, tracer=tracer)
        digests.append(tracer.digest)
    return (*digests, hashlib.sha256(report.fingerprint().encode()).hexdigest())


def figure_9_pin() -> list[tuple[str, float]]:
    service = CCFService(ServiceSetup(n_nodes=3, seed=9))
    service.bootstrap()
    user = service.any_user_client()
    for i in range(5):
        user.call(service.primary_node().node_id, "/app/write_message", {"id": i, "msg": f"m{i}"})
    operator = Operator(service)
    events = []
    for victim in (service.primary_node(), service.backup_nodes()[0]):
        service.kill_node(victim.node_id)
        _node, timeline = operator.replace_node(victim.node_id)
        events += timeline.events
    return events


def write_load_pin() -> dict:
    service = CCFService(
        ServiceSetup(
            n_nodes=5,
            node_config=NodeConfig(signature_interval=20, signature_flush_time=0.01),
            app_factory=build_logging_app,
            seed=7,
        )
    )
    service.bootstrap()
    primary = service.primary_node().node_id
    client = ServiceClient(
        service.scheduler, service.network, name="pin-load", identity=service.users[0]
    )
    state = {"running": True, "sent": 0, "ok": 0}

    def send() -> None:
        if not state["running"]:
            return
        index = state["sent"]
        state["sent"] += 1
        client.send(
            primary,
            "/app/write_message",
            {"id": (index * 37) % 1000, "msg": f"m{index:019d}"},
            on_response=on_reply,
        )

    def on_reply(response) -> None:
        state["ok"] += response.ok
        send()

    for _ in range(50):
        send()
    service.run(0.02)
    state["running"] = False
    service.run(0.5)  # drain: last signature flushed, committed and replicated
    return {
        "ok_replies": state["ok"],
        "primary_root": service.primary_node().ledger.root().hex(),
        "events_processed": service.scheduler.events_processed,
        "ledger_sha256": {
            node_id: hashlib.sha256(
                b"".join(entry.encode() for entry in node.ledger.entries())
            ).hexdigest()
            for node_id, node in sorted(service.nodes.items())
        },
    }


@pytest.mark.parametrize(
    "spec, seed, digest, fingerprint",
    [pytest.param(*pin[1:], id=pin[0]) for pin in CHAOS],
)
def test_chaos_trace_digest_is_pinned(spec, seed, digest, fingerprint):
    assert chaos_pin(spec, seed) == (digest, fingerprint)


@pytest.mark.parametrize(
    "spec, seed, digest, fingerprint",
    [pytest.param(*pin[1:3], CHAOS_LABEL_FREE[pin[0]], pin[4], id=pin[0]) for pin in CHAOS],
)
def test_chaos_trace_digest_without_labels_is_pinned(spec, seed, digest, fingerprint):
    assert chaos_pin(spec, seed, LabelFreeRecorder) == (digest, fingerprint)


@pytest.mark.parametrize(
    "spec, seed, digest, label_free, fingerprint",
    [pytest.param(*pin[1:], id=pin[0]) for pin in DISASTER],
)
def test_disaster_trace_digests_are_pinned(spec, seed, digest, label_free, fingerprint):
    assert disaster_pin(spec, seed) == (digest, label_free, fingerprint)


def test_figure_9_replacement_timeline_is_pinned():
    assert figure_9_pin() == FIGURE_9


def test_write_load_fingerprint_and_ledger_bytes_are_pinned():
    pin = write_load_pin()
    assert pin == WRITE_LOAD


if __name__ == "__main__":
    for name, spec, seed, _digest, _fingerprint in CHAOS:
        print(name, spec, seed, *chaos_pin(spec, seed))
        print(name, "label-free", chaos_pin(spec, seed, LabelFreeRecorder)[0])
    for name, spec, seed, *_pinned in DISASTER:
        print(name, spec, seed, *disaster_pin(spec, seed))
    print(figure_9_pin())
    print(write_load_pin())
