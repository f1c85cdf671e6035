"""Output pins for the observer: what ``ObsCollector`` records, byte for byte.

The collector's hot paths are tuned for host cost; these pins hold what
they record fixed. For two seeded runs they record the SHA-256 of the
JSONL span export, the SHA-256 of the metrics snapshot (``json.dumps`` with
sorted keys), and the trace checker's verdict:

- ``write_load``: a 5-node service takes writes at its primary and through
  a backup (forwarding); then the primary is partitioned away, keeps
  appending writes it can never commit, steps down, and rejoins the new
  view, truncating them (rolled-back commit waits);
- ``chaos``: one default ``ChaosSpec`` schedule (crashes, partitions,
  link loss, delay spikes, disk corruption, joins).

A change that moves a digest on purpose re-records it here in its own
commit and names the cause. ``python tests/obs/test_output_pins.py``
prints the current values.

Re-recorded once since, for "Drop stale AppendEntries rejections": a
failure ack is one byte shorter in its own layout (the write load's old
primary sends one: ``net.bytes_sent`` of n0 falls by 1, every span holds),
and the chaos schedule drops stale rejections instead of re-sending
windows, which shifts its later latency draws (every value moved).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.app.logging_app import build_logging_app
from repro.node.config import NodeConfig
from repro.obs import ObsCollector, check_trace
from repro.service.service import ServiceSetup, bootstrap_service
from repro.sim.chaos import ChaosEngine, ChaosSpec

WRITE_LOAD_SEED = 7
CHAOS_SEED = 3

PINS = {
    "write_load": {
        "spans_sha256": "eb5c4b21198be549438832c5d550172e83a745b60973e59cc08614599e3ad158",
        "metrics_sha256": "3984c01be307a46668bafbfc669bb3e5bda1776ddebabbfcbd02666813d58c59",
        "check": (True, 475, 475, False, ["n0", "n1", "n2", "n3", "n4"]),
    },
    "chaos": {
        "spans_sha256": "44536f9db5edfd132a2607ba17755cf948779cb4a55f1bffd906b99923f46a2f",
        "metrics_sha256": "c84a0d865ca9e0aa09fa843909ed6c3d9a2be07baff963231ce70373baad6f0a",
        "check": (
            True, 1886, 1886, False, ["n0", "n1", "n2", "n3", "n4", "n5", "n6"]
        ),
    },
}


def write_load_run() -> ObsCollector:
    collector = ObsCollector(seed=WRITE_LOAD_SEED)
    setup = ServiceSetup(
        n_nodes=5,
        node_config=NodeConfig(signature_interval=10, signature_flush_time=0.01),
        app_factory=build_logging_app,
        seed=WRITE_LOAD_SEED,
    )
    service = bootstrap_service(setup, obs=collector)
    credentials = {"certificate": service.users[0].certificate.to_dict()}
    client = service.any_user_client()

    def burst(n: int, first: int, targets: list[str]) -> None:
        for i in range(n):
            client.send(
                targets[i % len(targets)],
                "/app/write_message",
                {"id": first + i, "msg": f"msg-{first + i:03d}"},
                credentials=credentials,
            )

    old = service.primary_node().node_id
    backups = [node.node_id for node in service.backup_nodes()]
    burst(30, 0, [old, backups[0]])  # half of them forwarded
    service.run(0.05)
    service.network.partition_groups([old], backups)
    burst(12, 100, [old])  # appended on the old primary, never committed
    service.run(0.7)
    service.network.heal()
    service.run(0.3)
    new = service.primary_node().node_id
    burst(20, 200, [new, next(b for b in backups if b != new)])
    service.run(0.3)
    return collector


def chaos_run() -> ObsCollector:
    collector = ObsCollector(seed=CHAOS_SEED)
    ChaosEngine(ChaosSpec()).run_schedule(CHAOS_SEED, obs=collector)
    return collector


RUNS = {"write_load": write_load_run, "chaos": chaos_run}


def record(collector: ObsCollector) -> dict:
    result = check_trace(collector.spans)
    return {
        "spans_sha256": hashlib.sha256(collector.export_jsonl().encode()).hexdigest(),
        "metrics_sha256": hashlib.sha256(
            json.dumps(collector.registry.snapshot(), sort_keys=True).encode()
        ).hexdigest(),
        "check": (
            result.ok,
            result.events_checked,
            result.states_checked,
            result.has_gaps,
            result.nodes,
        ),
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_observer_output_is_pinned(name):
    assert record(RUNS[name]()) == PINS[name]


def test_the_write_load_covers_failover():
    spans = write_load_run().spans
    names = {span.name for span in spans}
    for name in (
        "forward", "consensus.election", "consensus.become_primary",
        "consensus.step_down", "ledger.truncate", "signature_tx",
    ):
        assert name in names, name
    assert any(span.attrs.get("rolled_back") for span in spans)


if __name__ == "__main__":
    for name, run in sorted(RUNS.items()):
        print(name, record(run()))
