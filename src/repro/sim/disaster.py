"""Disaster-recovery orchestrator: full-service-loss schedules (section 5.2).

The chaos engine (:mod:`repro.sim.chaos`) kills at most a minority and
heals; this module drives the catastrophe the paper's availability story
actually culminates in. One seeded schedule:

1. **Settled phase** — a service commits client writes; the client pins the
   service identity and fetches offline-verifiable receipts for some of its
   acknowledged transactions.
2. **Kill phase** — all (or a supermajority of) nodes die at seeded
   instants, racing further client writes. Some victims' disk controllers
   die *before* the host does (:meth:`HostStorage.arm_crash_point`), so a
   chunk write can land without its fsync barrier; every death then
   resolves the victim's un-synced writes with seeded power-loss fates —
   dropped, torn mid-blob, or applied (:meth:`HostStorage.power_loss`).
3. **Salvage phase** — the operator pulls a seeded subset of the disks;
   a seeded subset of *those* is corrupted by the adversary.
4. **Recovery phase** — the real §5.2 protocol: public replay of the best
   salvaged disk (typed salvage warnings, new service identity), member
   share submission with seeded member faults (offline member, duplicate
   share, wrong share), vote-to-open binding both identities, node rejoin
   through the attested join path, client reconnect.
5. **Verdict** — the end-to-end invariants of
   :mod:`repro.verification.disaster`: committed-receipt durability,
   rollback detectability (typed errors, never silent), bounded-time
   recovery liveness.

Every decision draws from the simulation's seeded RNG: a schedule is fully
determined by ``(seed, DisasterSpec)`` and replays byte-identically —
``python -m repro.sim.disaster --schedules 1 --seed N`` reproduces run N,
and ``--replay-check`` proves it by running each schedule twice under the
trace recorder and comparing digests.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass, field

from repro.errors import (
    CCFError,
    LostWriteError,
    RecoveryError,
    ServiceIdentityChangedError,
)
from repro.ledger.entry import TxID
from repro.net.network import LinkConfig
from repro.node.config import NodeConfig
from repro.recovery.recovery import replay_public_ledger, start_recovered_service
from repro.service.client import ContinuityTracker
from repro.service.operator import Operator, SalvagedDisk
from repro.service.service import ServiceSetup, bootstrap_service
from repro.sim.runner import ScheduleEngine
from repro.verification.disaster import DisasterEvidence, check_disaster_invariants


@dataclass(frozen=True)
class DisasterSpec:
    """Declarative shape of a disaster schedule; with a seed it is the
    complete, replayable description of a run."""

    n_nodes: int = 3
    settled_writes: int = 8  # fully committed before the disaster

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class DisasterReport:
    """Outcome of one seeded schedule — everything needed to replay it."""

    seed: int
    spec: dict
    fault_log: list[tuple[float, str]] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    member_faults: set[str] = field(default_factory=set)

    acked_writes: int = 0
    receipts_held: int = 0
    salvaged_disks: int = 0
    corrupted_disks: int = 0
    intact_disks: int = 0
    verified_seqno: int = 0
    lost_writes_detected: int = 0
    recovery_failed: str | None = None  # typed reason when no disk replays

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def failures(self) -> list[str]:
        return self.violations

    def fingerprint(self) -> str:
        """Canonical byte-for-byte description of the run: same
        (seed, spec) must yield the same fingerprint."""
        lines = [f"seed={self.seed}"]
        lines += [f"{t:.9f} {event}" for t, event in self.fault_log]
        lines += [f"VIOLATION {v}" for v in self.violations]
        lines.append(
            f"acked={self.acked_writes} receipts={self.receipts_held} "
            f"salvaged={self.salvaged_disks} corrupted={self.corrupted_disks} "
            f"verified={self.verified_seqno} lost={self.lost_writes_detected} "
            f"faults={','.join(sorted(self.member_faults))} "
            f"failed={self.recovery_failed or '-'}"
        )
        return "\n".join(lines)


# The service every schedule loses.
N_MEMBERS = 3
RECOVERY_THRESHOLD = 2
SIGNATURE_INTERVAL = 5

RECEIPT_EVERY = 2  # fetch a receipt for every k-th settled write
RACING_WRITES = 5  # writes racing the kill sequence, at most one per victim

P_KILL_ALL = 0.6  # else a minority lingers until salvage
P_MID_CHUNK_CRASH = 0.5  # arm a disk crash point on this victim
MAX_CRASH_COUNTDOWN = 4
KILL_SPREAD = 0.08  # max seeded stagger between kills

P_SALVAGE = 0.7  # per disk (at least one is always salvaged)
P_CORRUPT_SALVAGE = 0.3  # per salvaged disk

P_MEMBER_OFFLINE = 0.3
P_WRONG_SHARE = 0.4
P_DUPLICATE_SHARE = 0.4

REJOIN_NODES = 1
POST_RECOVERY_WRITES = 2
RECOVERY_BOUND = 5.0  # simulated seconds, share threshold -> service open


class DisasterEngine(ScheduleEngine):
    """Runs seeded full-service-loss schedules and checks the §5.2
    invariants end to end."""

    spec_type = DisasterSpec
    cli_flags = {"--nodes": "n_nodes"}
    prog = "repro.sim.disaster"
    description = "Run seeded full-service-loss disaster schedules."
    all_clear = (
        "all schedules passed receipt-durability, "
        "rollback-detectability, and recovery-liveness"
    )

    # -- schedule phases ------------------------------------------------

    def _settled_phase(self, service, tracker, report: DisasterReport) -> dict[str, str]:
        """Writes that fully commit, then receipts for a subset of them.
        Returns txid -> expected message for later read-back checks."""
        user = service.any_user_client()
        primary = service.primary_node()
        tracker.pin_identity(primary.node_id)
        expected: dict[str, str] = {}
        for i in range(self.spec.settled_writes):
            msg = f"dr-{report.seed}-{i}"
            response = user.call(
                primary.node_id, "/app/write_message", {"id": i, "msg": msg}
            )
            if response.ok and response.txid:
                tracker.record_ack(
                    response.txid, "/app/write_message", {"id": i, "msg": msg}
                )
                expected[response.txid] = msg
        service.run(0.5)  # commit, sign, persist, fsync everywhere
        for index, txid in enumerate(sorted(tracker.acked)):
            if index % RECEIPT_EVERY == 0:
                if tracker.fetch_receipt(primary.node_id, txid) is not None:
                    report.receipts_held += 1
        return expected

    def _kill_phase(self, service, tracker, report: DisasterReport) -> None:
        """Kill all (or a supermajority of) nodes at seeded instants,
        racing further client writes; every death resolves that disk's
        un-synced writes with seeded power-loss fates."""
        rng = service.scheduler.rng
        user = service.any_user_client()
        now = lambda: service.scheduler.now  # noqa: E731 - tiny local helper

        node_ids = sorted(service.nodes)
        rng.shuffle(node_ids)
        kill_all = rng.random() < P_KILL_ALL
        minority = 0 if kill_all else (self.spec.n_nodes - 1) // 2
        victims = node_ids[: len(node_ids) - minority]
        report.fault_log.append(
            (now(), f"kill {'all' if kill_all else 'supermajority'}: {victims}")
        )

        race = iter(range(RACING_WRITES))
        for victim in victims:
            node = service.nodes[victim]
            if rng.random() < P_MID_CHUNK_CRASH:
                countdown = rng.randrange(0, MAX_CRASH_COUNTDOWN + 1)
                node.storage.arm_crash_point(countdown)
                report.fault_log.append(
                    (now(), f"arm crash point on {victim} (countdown {countdown})")
                )
            service.run(rng.uniform(0.005, KILL_SPREAD))
            # A client write racing the kill sequence: acked-but-doomed
            # writes are exactly what rollback detectability is about.
            i = next(race, None)
            if i is not None:
                target = service.primary_node()
                live = [n for n in service.nodes.values() if not n.stopped]
                if target is None and live:
                    target = live[0]
                if target is not None:
                    msg = f"dr-race-{report.seed}-{i}"
                    response = user.call(
                        target.node_id, "/app/write_message",
                        {"id": 100 + i, "msg": msg}, timeout=0.15,
                    )
                    if response.ok and response.txid:
                        tracker.record_ack(
                            response.txid, "/app/write_message",
                            {"id": 100 + i, "msg": msg},
                        )
            node.crash()
            events = node.storage.power_loss(rng)
            report.fault_log.append((now(), f"power loss on {victim}"))
            for event in events:
                report.fault_log.append((now(), f"  {victim}: {event}"))

        # The operator decommissions any lingering minority before starting
        # recovery: CCF's recovery replaces the service wholesale.
        for node_id in node_ids[len(victims):]:
            node = service.nodes[node_id]
            service.run(rng.uniform(0.005, KILL_SPREAD))
            node.crash()
            node.storage.power_loss(rng)
            report.fault_log.append((now(), f"decommission {node_id}"))
        report.acked_writes = len(tracker.acked)

    def _salvage_phase(
        self, service, report: DisasterReport
    ) -> list[SalvagedDisk]:
        """The operator pulls a seeded subset of the dead disks; the
        adversary corrupts a seeded subset of those."""
        rng = service.scheduler.rng
        operator = Operator(service)
        now = service.scheduler.now
        node_ids = sorted(service.nodes)
        chosen = [n for n in node_ids if rng.random() < P_SALVAGE]
        if not chosen:
            chosen = [node_ids[rng.randrange(len(node_ids))]]
        disks: list[SalvagedDisk] = []
        for node_id in chosen:
            disk = operator.salvage_disk(node_id, rng)
            if rng.random() < P_CORRUPT_SALVAGE:
                description = self._corrupt_disk(disk, rng)
                if description is not None:
                    disk.corrupted = True
                    report.corrupted_disks += 1
                    report.fault_log.append((now, description))
            disks.append(disk)
            report.fault_log.append(
                (now,
                 f"salvage disk of {node_id} "
                 f"(synced through {disk.synced_ledger_seqno}"
                 f"{', corrupted' if disk.corrupted else ''})")
            )
        report.salvaged_disks = len(disks)
        report.intact_disks = sum(1 for d in disks if not d.corrupted)
        return disks

    def _corrupt_disk(self, disk: SalvagedDisk, rng) -> str | None:
        """Adversarial tampering with a salvaged disk: flip a byte in a
        chunk, tear a chunk mid-blob, or roll back trailing chunks."""
        names = disk.storage.list_files("ledger_")
        if not names:
            return None
        choice = rng.random()
        if choice < 0.4:
            name = names[rng.randrange(len(names))]
            offset = rng.randrange(max(1, len(disk.storage.read(name))))
            disk.storage.tamper_flip_byte(name, offset)
            return f"corrupt disk of {disk.node_id}: flip byte {offset} of {name}"
        if choice < 0.7:
            name = names[rng.randrange(len(names))]
            size = len(disk.storage.read(name))
            keep = rng.randrange(size) if size else 0
            disk.storage.tamper_truncate_file(name, keep)
            return f"corrupt disk of {disk.node_id}: tear {name} at byte {keep}"
        keep = rng.randrange(max(1, len(names)))
        disk.storage.tamper_truncate_ledger(keep_chunks=keep)
        return f"corrupt disk of {disk.node_id}: roll back to {keep} chunks"

    def _pick_recovery_disk(
        self, disks: list[SalvagedDisk], report: DisasterReport, now: float
    ):
        """Dry-run replay on every salvaged disk and pick the one with the
        deepest verifiable prefix — what a careful operator would do."""
        best = None
        best_seqno = -1
        for disk in disks:
            try:
                result = replay_public_ledger(disk.storage.clone())
            except RecoveryError as exc:
                report.fault_log.append(
                    (now, f"disk of {disk.node_id} unrecoverable: {exc}")
                )
                continue
            report.fault_log.append(
                (now,
                 f"disk of {disk.node_id} replays through "
                 f"{result.verified_seqno} ({len(result.warnings)} salvage "
                 f"warnings)")
            )
            if result.verified_seqno > best_seqno:
                best, best_seqno = disk, result.verified_seqno
        return best

    def _share_phase(
        self, service, node, report: DisasterReport, evidence: DisasterEvidence
    ) -> None:
        """Member share submission under seeded member faults: an offline
        member, a wrong share (typed rejection, no poisoning), a duplicate
        share (no-op). Sets ``shares_reached_threshold``."""
        rng = service.scheduler.rng
        now = lambda: service.scheduler.now  # noqa: E731 - tiny local helper
        members = list(service.members)
        rng.shuffle(members)
        if (
            rng.random() < P_MEMBER_OFFLINE
            and len(members) - 1 >= RECOVERY_THRESHOLD
        ):
            offline = members.pop()
            report.member_faults.add("offline-member")
            report.fault_log.append(
                (now(), f"member {offline.subject} offline during recovery")
            )
        wrong_planned = rng.random() < P_WRONG_SHARE
        duplicate_planned = rng.random() < P_DUPLICATE_SHARE

        for index, member in enumerate(members):
            share = member.fetch_share(node.node_id)
            if index == 0 and wrong_planned:
                bogus = bytearray(share)
                bogus[len(bogus) // 2] ^= 0xFF
                result = member.submit_share(node.node_id, bytes(bogus))
                report.member_faults.add("wrong-share")
                report.fault_log.append(
                    (now(),
                     f"member {member.subject} submits a wrong share -> "
                     f"{result.status}")
                )
                if result.status != 400 or "share commitment" not in (
                    result.error or ""
                ):
                    report.violations.append(
                        "wrong share was not rejected with a typed "
                        f"commitment error (got {result.status}: {result.error})"
                    )
            result = member.submit_share(node.node_id, share)
            if not result.ok:
                report.violations.append(
                    f"share submission by {member.subject} failed: {result.error}"
                )
                continue
            report.fault_log.append(
                (now(),
                 f"member {member.subject} submitted their share "
                 f"{result.body['submitted']}/{result.body['required']}")
            )
            if (
                index == 0
                and duplicate_planned
                and not result.body.get("recovered")
            ):
                again = member.submit_share(node.node_id, share)
                report.member_faults.add("duplicate-share")
                report.fault_log.append(
                    (now(), f"member {member.subject} re-submits (retry)")
                )
                if not again.ok or not again.body.get("duplicate"):
                    report.violations.append(
                        "duplicate share resubmission was not a no-op"
                    )
            if result.body.get("recovered"):
                evidence.shares_reached_threshold = True
                return

    def _rejoin_phase(self, service, report: DisasterReport) -> None:
        """Fresh nodes join the recovered service through the real attested
        join path, then governance trusts them (sections 4.4/5.2)."""
        for _rejoin in range(REJOIN_NODES):
            try:
                successor, _ = service.join_node(timeout=RECOVERY_BOUND)
                service.trust_node(successor.node_id, timeout=RECOVERY_BOUND)
            except CCFError as exc:
                report.violations.append(f"recovery-liveness: rejoin stuck: {exc}")
                return
            report.fault_log.append(
                (service.scheduler.now, f"{successor.node_id} rejoined and trusted")
            )

    # -- the schedule ---------------------------------------------------

    def run_schedule(self, seed: int, tracer=None, obs=None) -> DisasterReport:
        """One fully seeded full-service-loss schedule. Deterministic:
        equal (seed, spec) gives equal reports and equal trace digests."""
        report = DisasterReport(seed=seed, spec=self.spec.to_dict())
        evidence = DisasterEvidence()
        service = bootstrap_service(
            ServiceSetup(
                n_nodes=self.spec.n_nodes,
                n_members=N_MEMBERS,
                recovery_threshold=RECOVERY_THRESHOLD,
                node_config=NodeConfig(signature_interval=SIGNATURE_INTERVAL),
                link=LinkConfig(base_latency=0.004, jitter=0.0008),
                seed=seed,
            ),
            tracer=tracer, obs=obs,
        )
        scheduler = service.scheduler
        user = service.any_user_client()
        tracker = ContinuityTracker(user)

        expected = self._settled_phase(service, tracker, report)
        evidence.receipted_txids = tracker.receipted_txids
        self._kill_phase(service, tracker, report)
        evidence.acked_txids = sorted(tracker.acked)

        disks = self._salvage_phase(service, report)
        evidence.intact_salvaged = report.intact_disks > 0
        evidence.durable_floor = max(
            (d.synced_ledger_seqno for d in disks if not d.corrupted), default=0
        )

        best = self._pick_recovery_disk(disks, report, scheduler.now)
        if best is None:
            report.recovery_failed = "no salvaged disk yielded a verifiable ledger"
            report.fault_log.append((scheduler.now, report.recovery_failed))
            report.violations.extend(check_disaster_invariants(evidence))
            return report

        recovery_node = service.new_node()
        try:
            summary = start_recovered_service(
                recovery_node, best.storage, f"dr-recovered-{seed}"
            )
        except RecoveryError as exc:
            report.recovery_failed = f"recovery start failed: {exc}"
            report.fault_log.append((scheduler.now, report.recovery_failed))
            report.violations.extend(check_disaster_invariants(evidence))
            return report
        service.run(0.2)
        evidence.recovered = True
        report.verified_seqno = summary["verified_seqno"]
        evidence.verified_seqno = summary["verified_seqno"]
        report.fault_log.append(
            (scheduler.now,
             f"recovered service from disk of {best.node_id}: verified "
             f"through {summary['verified_seqno']}, "
             f"{len(summary['salvage_warnings'])} salvage warnings")
        )

        self._share_phase(service, recovery_node, report, evidence)
        threshold_time = scheduler.now
        if evidence.shares_reached_threshold:
            try:
                service.open_service(summary, timeout=RECOVERY_BOUND)
            except CCFError as exc:
                report.violations.append(f"recovery-liveness: {exc}")
            else:
                evidence.service_opened = True
                evidence.open_within_bound = (
                    scheduler.now - threshold_time <= RECOVERY_BOUND
                )
                report.fault_log.append((scheduler.now, "recovered service is open"))

        if evidence.service_opened:
            self._rejoin_phase(service, report)
            # Post-recovery writes must commit on the recovered service.
            for i in range(POST_RECOVERY_WRITES):
                response = user.call(
                    recovery_node.node_id, "/app/write_message",
                    {"id": 200 + i, "msg": f"post-{seed}-{i}"},
                )
                if not response.ok:
                    report.violations.append(
                        f"recovery-liveness: post-recovery write {i} failed: "
                        f"{response.error}"
                    )
            service.run(0.3)

            # Ground truth from the recovered ledger itself (the client
            # audit below must independently agree with this).
            commit = recovery_node.consensus.commit_seqno
            for txid in evidence.acked_txids:
                parsed = TxID.parse(txid)
                if recovery_node.ledger.has_txid(parsed) and parsed.seqno <= commit:
                    evidence.committed_txids.add(txid)
            for txid, msg in sorted(expected.items()):
                if txid not in tracker.receipted_txids:
                    continue
                if txid not in evidence.committed_txids:
                    continue
                body = tracker.acked[txid].body
                response = user.call(
                    recovery_node.node_id, "/app/read_message", {"id": body["id"]}
                )
                if not response.ok or response.body.get("msg") != msg:
                    evidence.receipted_reads_ok = False

            # Client reconnect: the continuity audit must surface the new
            # identity and every dropped write as *typed* findings.
            findings = tracker.audit(recovery_node.node_id)
            evidence.identity_change_reported = any(
                isinstance(f, ServiceIdentityChangedError) for f in findings
            )
            evidence.reported_lost_txids = {
                f.txid for f in findings
                if isinstance(f, LostWriteError) and f.txid is not None
            }
            report.lost_writes_detected = len(evidence.reported_lost_txids)
            for finding in findings:
                report.fault_log.append(
                    (scheduler.now,
                     f"client finding: {type(finding).__name__}: {finding}")
                )

        report.violations.extend(check_disaster_invariants(evidence))
        return report

    def summarize(self, schedules: list[DisasterReport]) -> list[str]:
        faults = set().union(*(s.member_faults for s in schedules))
        recovered = sum(1 for s in schedules if s.recovery_failed is None)
        return [
            f"disaster: {len(schedules)} schedules, "
            f"{recovered} recovered, "
            f"{sum(s.acked_writes for s in schedules)} acked writes, "
            f"{sum(s.receipts_held for s in schedules)} receipts held",
            f"disks: {sum(s.salvaged_disks for s in schedules)} salvaged, "
            f"{sum(s.corrupted_disks for s in schedules)} corrupted; "
            f"lost writes detected: "
            f"{sum(s.lost_writes_detected for s in schedules)}",
            f"member faults exercised: {', '.join(sorted(faults)) or 'none'}",
        ]


if __name__ == "__main__":
    sys.exit(DisasterEngine.main())
