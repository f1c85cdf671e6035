"""Disaster recovery end to end (section 5.2).

These tests drive the same :class:`CCFService` moves as
``examples/disaster_recovery.py`` and the seeded schedules of
:mod:`repro.sim.disaster`: full service loss, disk salvage, public replay,
member share submission, vote-to-open, and the client-side continuity
audit. The crash-point enumeration test is the acceptance gate for the
crash-consistency model: wherever the disk dies relative to the fsync
barrier, recovery either succeeds or fails *typed*, a receipted
transaction is never silently lost, and a dropped suffix is always
client-detectable.
"""

import random

import pytest

from repro.errors import (
    LostWriteError,
    RecoveryError,
    ServiceIdentityChangedError,
)
from repro.ledger.entry import TxID
from repro.node.config import NodeConfig
from repro.obs.collector import ObsCollector
from repro.recovery.recovery import start_recovered_service
from repro.service.client import ContinuityTracker
from repro.service.operator import Operator
from repro.service.service import CCFService, ServiceSetup, bootstrap_service
from repro.sim.disaster import DisasterEngine, DisasterSpec


def build_service(seed: int = 42, obs: ObsCollector | None = None) -> CCFService:
    return bootstrap_service(
        ServiceSetup(
            n_nodes=3,
            n_members=3,
            recovery_threshold=2,
            node_config=NodeConfig(signature_interval=5),
            seed=seed,
        ),
        obs=obs,
    )


def recover_from(service: CCFService, disk, subject: str = "svc-recovered"):
    """Start a recovery node from a salvaged disk and run the §5.2 member
    protocol to completion. Returns (recovery_node, summary)."""
    recovery_node = service.new_node()
    summary = start_recovered_service(recovery_node, disk, subject)
    service.run(0.2)
    assert service.submit_recovery_shares()
    service.open_service(summary)
    service.run(0.3)
    return recovery_node, summary


class TestFullRecoveryWalkthrough:
    def test_happy_path_restores_private_data_and_reports_identity(self):
        service = build_service()
        user = service.any_user_client()
        primary = service.primary_node()
        tracker = ContinuityTracker(user)
        tracker.pin_identity(primary.node_id)

        for i in range(10):
            response = user.call(primary.node_id, "/app/write_message",
                                 {"id": i, "msg": f"record {i}"})
            assert response.ok
            tracker.record_ack(response.txid)
        service.run(0.5)
        for txid in tracker.acked:
            assert tracker.fetch_receipt(primary.node_id, txid) is not None

        disk = primary.storage.clone()
        for node_id in list(service.nodes):
            service.kill_node(node_id)

        recovery_node, summary = recover_from(service, disk)
        assert summary["verified_seqno"] > 0
        assert summary["salvage_warnings"] == []

        # Private data is back.
        for i in (0, 9):
            response = user.call(
                recovery_node.node_id, "/app/read_message", {"id": i}
            )
            assert response.ok and response.body["msg"] == f"record {i}"

        # The recovery is detectable, and nothing receipted was lost.
        findings = tracker.audit(recovery_node.node_id)
        assert any(isinstance(f, ServiceIdentityChangedError) for f in findings)
        assert not any(isinstance(f, LostWriteError) for f in findings)

    def test_recovery_emits_obs_phases(self):
        obs = ObsCollector(seed=7)
        service = build_service(obs=obs)
        user = service.any_user_client()
        primary = service.primary_node()
        for i in range(6):
            user.call(primary.node_id, "/app/write_message",
                      {"id": i, "msg": f"r{i}"})
        service.run(0.5)
        disk = primary.storage.clone()
        for node_id in list(service.nodes):
            service.kill_node(node_id)
        recovery_node, _ = recover_from(service, disk)

        names = {span.name for span in obs.spans}
        for phase in ("replay", "awaiting_shares", "share_submitted",
                      "reconstructed", "private_recovery", "open"):
            assert f"recovery.{phase}" in names, f"missing recovery.{phase}"
        counted = obs.registry.counter(
            "recovery.phases", node=recovery_node.node_id, phase="replay"
        )
        assert counted.value == 1


class TestCrashPointEnumeration:
    """The acceptance gate: enumerate disk-death points around the fsync
    barrier. For every crash point, recovery from the single salvaged disk
    either succeeds or fails with a typed RecoveryError; a transaction the
    client holds a receipt for is never silently lost; and any acked write
    the recovered ledger dropped surfaces in the client audit as a typed
    LostWriteError."""

    @pytest.mark.parametrize("countdown", range(6))
    def test_crash_point(self, countdown):
        service = build_service(seed=1000 + countdown)
        user = service.any_user_client()
        primary = service.primary_node()
        tracker = ContinuityTracker(user)
        tracker.pin_identity(primary.node_id)

        # Settled writes, fully persisted; receipts for all of them.
        for i in range(6):
            response = user.call(primary.node_id, "/app/write_message",
                                 {"id": i, "msg": f"settled {i}"})
            assert response.ok
            tracker.record_ack(response.txid)
        service.run(0.5)
        for txid in list(tracker.acked):
            assert tracker.fetch_receipt(primary.node_id, txid) is not None

        # The primary's disk dies `countdown` mutations from now; writes
        # race the death, then the host crashes and power is lost.
        primary.storage.arm_crash_point(countdown)
        for i in range(4):
            response = user.call(primary.node_id, "/app/write_message",
                                 {"id": 100 + i, "msg": f"racing {i}"},
                                 timeout=0.2)
            if response.ok and response.txid:
                tracker.record_ack(response.txid)
        service.run(0.1)
        for node_id in list(service.nodes):
            service.kill_node(node_id)
        disk = Operator(service).salvage_disk(
            primary.node_id, random.Random(countdown)
        ).storage

        try:
            recovery_node, _ = recover_from(service, disk)
        except RecoveryError:
            return  # typed failure is an acceptable outcome

        # Receipted transactions survived (they were fsynced under a
        # committed signature before the receipt was served).
        ledger = recovery_node.ledger
        commit = recovery_node.consensus.commit_seqno
        for txid in tracker.receipted_txids:
            parsed = TxID.parse(txid)
            assert ledger.has_txid(parsed) and parsed.seqno <= commit, (
                f"receipted transaction {txid} lost at crash point {countdown}"
            )

        # Every dropped acked write is client-detectable, and the identity
        # change always is.
        findings = tracker.audit(recovery_node.node_id)
        assert any(isinstance(f, ServiceIdentityChangedError) for f in findings)
        reported_lost = {
            f.txid for f in findings if isinstance(f, LostWriteError)
        }
        actually_lost = {
            t for t in tracker.acked
            if not (ledger.has_txid(TxID.parse(t))
                    and TxID.parse(t).seqno <= commit)
        }
        assert reported_lost == actually_lost


class TestSeededDisasterSchedules:
    def test_schedules_pass_all_invariants(self):
        report = DisasterEngine(DisasterSpec(settled_writes=6)).run(
            schedules=3, first_seed=9
        )
        assert report.ok, report.summary()
        # The batch exercised actual loss or corruption somewhere.
        assert sum(s.salvaged_disks for s in report.schedules) >= 3

    def test_same_seed_replays_byte_identically(self):
        ok, description = DisasterEngine(DisasterSpec(settled_writes=6)).check_replay(seed=3)
        assert ok, description
