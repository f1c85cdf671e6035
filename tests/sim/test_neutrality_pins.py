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
# Last re-recorded after two changes, named by their commit subjects:
# - "Draw each chaos schedule's fault plan from its own seeded stream"
#   moved every value in CHAOS and CHAOS_LABEL_FREE (each seed now injects
#   other faults) and nothing else;
# - "Catch a lagging peer up in one round trip over ordered streams"
#   moved them again, except the crashes fingerprint, and moved the
#   default-0 and default-3 trace digests in DISASTER (their report
#   fingerprints held) and WRITE_LOAD: consensus frames now arrive in
#   send order, so delivery times and the draws and ledgers that follow
#   them changed. On the write load no append is rejected any more (16
#   failure acks and 6 replay-dropped frames before).
# FIGURE_9 and six-settled-writes held through both; "Encode the snapshot
# manifest once per snapshot", between them, moved nothing.
# "Drop stale AppendEntries rejections" then moved every value in CHAOS and
# CHAOS_LABEL_FREE and nothing else: both schedules drew rejections from
# reordered bursts, and a dropped one no longer re-sends a window, so the
# latency draws after it changed.
CHAOS = [
    (
        "crashes",
        dict(steps=3, p_crash=0.3),
        5,
        "c9f04e83af2619c0ae5b223fab2109ada3641b08dc0657880e99471bebc4f1c6",
        "4dc91a6148140fe6514347ea81ca77207e666a634bdf3d563e6ac0eda105cb78",
    ),
    (
        "three-nodes",
        dict(n_nodes=3, steps=2),
        3,
        "6563c47d87fb84eff18a02fd7bd02d8f1c581cf008286626a8e7cac4420f1640",
        "c640290d50484ce3ae9a9ff4d06c2de6ffe14b6f95a87d6da5e0e6009e68e43f",
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
    "crashes": "50c7076b555194467984340d9042ab120ae47f81adbcd7fef6858e22d1c44846",
    "three-nodes": "5771474bfa055265e854b0d69ea9f2c66a3c31672094056c4463762e7f76173e",
}

# Disaster schedules are otherwise only ever compared with themselves
# (``--replay-check``): (spec, seed) -> (trace digest, label-free trace
# digest, sha256 of the report's fingerprint).
DISASTER = [
    (
        "default-0",
        dict(),
        0,
        "1f10c9702504e148a4d4fc9a170d44bf779050de0e71a0b62998a0679538b7f8",
        "8ccee9c6d72321f72caa2c2fe3b9fae1e45124d3c0b7577819478f07c49bdb4d",
        "96cd50537a271f0c95112244a3f4c508495398e1221d412c61e96921b86d1e34",
    ),
    (
        "default-3",
        dict(),
        3,
        "5e41f9106bd8721682bca51d52846d44200492199faca8777c42b66c4aa4b6f8",
        "060baf6dfe8ca66113e2b5bc1a4cee5fa94951a28cc7d2512dacb993de7fa9df",
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
_LEDGER_SHA256 = "feb397881a86eef07944faad009003e95d6b7148984616b8fe3bb69e599c27bb"
WRITE_LOAD = {
    "ok_replies": 988,
    "primary_root": "128628695742b65c4d1ff44eb2947068d495db8200838f245e6e102c41f76b7b",
    "events_processed": 4227,
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
