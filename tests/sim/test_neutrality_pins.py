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
# The digests were re-recorded when the node's scheduled callbacks changed
# module and qualname (``repro.node.node.CCFNode._enqueue_request`` became
# ``repro.node.frontend.Frontend.admit``, and so on); nothing else moved.
CHAOS = [
    (
        "crashes",
        dict(steps=3, p_crash=0.3),
        5,
        "dc9937a6dfc9ece128049f086835dcbc968ee1f1e8d75c62dc3b1557d4da4643",
        "7dc8a14e71d8b541432c231412623045f35e43dc36fde2a7c2743cc82372a846",
    ),
    (
        "three-nodes",
        dict(n_nodes=3, steps=2),
        3,
        "f9860c9555dbbd946e09f0c42066ddc7b80859ef66b021b4991287d8b61b3402",
        "448c5579fdafa274feee3fc252ec63e562ea99fa8cae7a7da60163611cb95fc5",
    ),
    (
        "batching+read-offload",
        dict(steps=3, p_crash=0.3, batch_execution=True, read_offload=True),
        9,
        "b920887cb2fef110d9524f0b9d953a228a84661656b8c51a50d16e8cacc00c61",
        "042e7a6a70a40141c433aa4c1fbafa1a67d5e8937a057a0a55fe880b7cb215f6",
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
    "crashes": "d83138ccf65aa564164ed8acdaab11d352cfde4d608f93342266609fea262f17",
    "three-nodes": "8f4f130dc4409c75eaa0191d4f2cf70b5cafa35c7cb7e803a04ebd40360d8c86",
    "batching+read-offload": "ed32c2030d50be68f238bf95c23c773ccc1872074b188cbf5b7cce9de3dea688",
}

# Disaster schedules are otherwise only ever compared with themselves
# (``--replay-check``): (spec, seed) -> (trace digest, label-free trace
# digest, sha256 of the report's fingerprint).
DISASTER = [
    (
        "default-0",
        dict(),
        0,
        "bb59dfc7cc868389b545a91d02e37ea07e62566587dd61d3747b2dd31ad2ad19",
        "19535310b57842da00941f6eb7bd9d210c7db3c15ff0e35f4b67c5635607b0de",
        "2b05ee321fe12ad86e88392b407d9803ec23a2c03af9f262e074c9acc6fd1578",
    ),
    (
        "default-3",
        dict(),
        3,
        "bd76faacbe181d096ffb4165d35e1f4f07eb9ab590f0da93f3c11e44e18c31e7",
        "d7269cca50264266fab8869a3c65bd1a72813025c336238c6cfbe910cf94b8c7",
        "9ed49fbd931c0eb0ad7526305ff54c91d65e57aaf61d64ac680acbfeb92fd3ef",
    ),
    (
        "six-settled-writes",
        dict(settled_writes=6),
        3,
        "a32e6070cd5e8089ebe5571d47dd0743984c5bef209f1b1ff34e6a44656c62ff",
        "9d3f094ce927e96a507c1b993355dad2e22d3936d32f4087cde44074b321f0c4",
        "fd3a9d7e02f3ad151fdc8e0b0dd0d31aa6792ecaadb5d5b5288cf6bf8bbe149a",
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
_LEDGER_SHA256 = "908d5a9fc01716b8757e0f808429d3783b0b89a7517d774f9d0b9bc995619517"
WRITE_LOAD = {
    "ok_replies": 985,
    "primary_root": "44b6248c8cd86d2b3aadbeb406c31573e33e85698c2f6af649feeff21068cbc1",
    "events_processed": 4411,
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
