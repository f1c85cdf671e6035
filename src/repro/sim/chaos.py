"""Chaos engine: composable fault injection over the full service stack.

The consensus-only explorer (:mod:`repro.verification.explorer`) drives
bare protocol engines; this module drives *complete* :class:`CCFNode`
stacks — governance, ledger, receipts, attested join — under closed-loop
client load, through seeded adversarial schedules drawn from an extended
fault taxonomy:

==================  ====================================================
fault               mechanism
==================  ====================================================
crash/disk intact   node killed; a successor validates the salvaged
                    ledger (corruption/truncation detected here) and
                    rejoins through the real attested join path
crash/disk loss     node killed, disk gone; successor joins fresh
partition           pairwise group cut, later healed
link loss           per-directed-link (asymmetric) probabilistic loss
duplication         messages delivered twice
delay spike         random large delays => reordering
gray failure        a node stays alive but serves everything late
clock skew          a node's election timers run fast or slow
disk corruption     byte flips / truncation of a crashed node's chunks
==================  ====================================================

After the fault window the environment heals and the engine checks
*recovery*: safety invariants (always), plus the bounded-time liveness
properties of :mod:`repro.verification.liveness` — primary re-election,
commit resumption, a client-observed availability floor, and no
permanently stuck reconfiguration.

Every fault decision and magnitude is drawn from the schedule's own RNG,
seeded from the schedule seed alone; the network's per-message draws
(latency, loss, duplication, spikes) stay on the scheduler's RNG. A change
to the message schedule therefore moves *when* things happen but not
*which* faults a seed injects. A schedule is fully determined by
``(seed, ChaosSpec)`` and any reported violation replays byte-identically:

    ChaosEngine(spec).run_schedule(seed)   # == the reported run

Run ``python -m repro.sim.chaos --schedules 5`` for the CI smoke mode.
"""

from __future__ import annotations

import dataclasses
import random
import sys
from dataclasses import dataclass, field

from repro.errors import CCFError
from repro.net.network import LinkConfig
from repro.node.config import NodeConfig
from repro.obs.metrics import reset_runtime_stats
from repro.service.client import ClosedLoopClient, ServiceClient
from repro.service.service import ServiceSetup, bootstrap_service
from repro.sim.runner import ScheduleEngine
from repro.storage.host_storage import HostStorage
from repro.verification import liveness
from repro.verification.invariants import InvariantViolation, check_all_invariants


@dataclass(frozen=True)
class ChaosSpec:
    """Declarative shape of a chaos schedule. Together with a seed this is
    the complete, replayable description of a run."""

    n_nodes: int = 5
    steps: int = 6

    # Per-step fault probabilities (the rest are constants of the engine).
    p_crash: float = 0.12
    p_partition: float = 0.12

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class ScheduleReport:
    """Outcome of one seeded schedule — everything needed to replay it."""

    seed: int
    spec: dict
    steps_run: int = 0
    fault_log: list[tuple[float, str]] = field(default_factory=list)
    safety_violations: list[str] = field(default_factory=list)
    liveness_violations: list[str] = field(default_factory=list)
    corruptions_injected: int = 0
    corruptions_detected: int = 0
    disk_intact_restarts: int = 0
    disk_loss_restarts: int = 0
    fault_kinds: set[str] = field(default_factory=set)
    completed_requests: int = 0
    client_errors: int = 0
    final_commit_seqno: int = 0

    @property
    def ok(self) -> bool:
        return (
            not self.failures
            and self.corruptions_detected == self.corruptions_injected
        )

    @property
    def failures(self) -> list[str]:
        return self.safety_violations + self.liveness_violations

    def fingerprint(self) -> str:
        """Canonical byte-for-byte description of the run, for replay
        comparison: same (seed, spec) must yield the same fingerprint."""
        lines = [f"seed={self.seed}"]
        lines += [f"{t:.9f} {event}" for t, event in self.fault_log]
        lines += [f"SAFETY {v}" for v in self.safety_violations]
        lines += [f"LIVENESS {v}" for v in self.liveness_violations]
        lines.append(
            f"corruption {self.corruptions_detected}/{self.corruptions_injected} "
            f"commit={self.final_commit_seqno} completed={self.completed_requests}"
        )
        return "\n".join(lines)


# The service every schedule runs against, and the load on it.
CLIENT_CONCURRENCY = 2
BASE_LATENCY = 0.004  # slower-than-LAN links keep event counts sane
SIGNATURE_INTERVAL = 100

# Liveness bounds (simulated seconds).
RECOVERY_BOUND = 5.0
AVAILABILITY_WINDOW = 1.0
MIN_POST_HEAL_EVENTS = 6


class ServiceCluster:
    """One schedule's own state: the service under test, the closed-loop
    load on it, and the disks of the nodes that are down."""

    def __init__(self, spec: ChaosSpec, seed: int, tracer=None, obs=None):
        self.service = bootstrap_service(
            ServiceSetup(
                n_nodes=spec.n_nodes,
                node_config=NodeConfig(signature_interval=SIGNATURE_INTERVAL),
                link=LinkConfig(base_latency=BASE_LATENCY, jitter=BASE_LATENCY / 5),
                seed=seed,
            ),
            tracer=tracer, obs=obs,
        )
        # The fault plan's own stream: which faults, where, how large.
        self.rng = random.Random(f"chaos-faults/{seed}")
        # (node_id -> (salvaged disk or None, last persisted seqno, corrupted?))
        self.crashed: dict[str, tuple[HostStorage | None, int, bool]] = {}
        self.client = self._start_load()

    def _start_load(self):
        service = self.service
        user = service.users[0]
        credentials = {"certificate": user.certificate.to_dict()}
        endpoint = ServiceClient(
            service.scheduler, service.network, name="chaos-load", identity=user
        )
        client = ClosedLoopClient(
            endpoint,
            service.primary_node().node_id,
            lambda i: ("/app/write_message", {"id": i % 100, "msg": f"v{i}"}, credentials),
            concurrency=CLIENT_CONCURRENCY,
            fallback_nodes=[n.node_id for n in service.backup_nodes()],
            retry_timeout=0.1,
        )
        client.start()
        return client

    # ------------------------------------------------------------------

    def live_engines(self) -> list:
        return [node.consensus for node in self.service.live_nodes()]

    def all_engines(self) -> list:
        """Every engine that ever ran, crashed nodes' included: what a dead
        node committed still binds the ones that live."""
        return [
            node.consensus for node in self.service.nodes.values()
            if node.consensus is not None
        ]

    def crash_node(self, node_id: str, disk_lost: bool) -> None:
        """Crash with disk intact (salvage the host storage) or with disk
        loss (nothing survives)."""
        node = self.service.nodes[node_id]
        salvaged = None if disk_lost else node.storage.clone()
        persisted = 0 if disk_lost else node.persisted_seqno
        node.crash()
        self.crashed[node_id] = (salvaged, persisted, False)

    def corrupt_salvaged_disk(self, node_id: str) -> str | None:
        """Tamper with a crashed node's salvaged disk: flip a byte in a
        complete chunk, or truncate trailing chunks. Returns a description,
        or None when the disk has nothing to corrupt."""
        salvaged, persisted, _ = self.crashed[node_id]
        rng = self.rng
        if salvaged is None:
            return None
        complete = [
            name for name in salvaged.list_files("ledger_")
            if not name.endswith(".open.chunk")
        ]
        if not complete:
            return None
        if len(complete) > 1 and rng.random() < 0.5:
            salvaged.tamper_truncate_ledger(keep_chunks=len(complete) - 1)
            description = f"truncate disk of {node_id}"
        else:
            name = complete[rng.randrange(len(complete))]
            offset = rng.randrange(24, max(25, len(salvaged.read(name))))
            salvaged.tamper_flip_byte(name, offset)
            description = f"corrupt disk of {node_id} ({name} @ {offset})"
        self.crashed[node_id] = (salvaged, persisted, True)
        return description

    def restart_crashed(self, node_id: str, report: ScheduleReport) -> None:
        """Bring a replacement for ``node_id`` through the real join path:
        disk-intact restarts validate the salvaged ledger first (this is
        where injected corruption must be caught), disk-loss restarts join
        fresh; governance then trusts the successor and removes the dead
        node (the Figure 9 / section 4.4 sequence)."""
        salvaged, persisted, corrupted = self.crashed.pop(node_id)
        service = self.service
        if service.primary_node() is None:
            report.liveness_violations.append(
                f"liveness: no primary available to rejoin {node_id}"
            )
            return
        started = service.scheduler.now  # the node judges its disk before it joins
        try:
            successor, rejected = service.join_node(
                salvaged, expected_seqno=persisted, timeout=RECOVERY_BOUND
            )
        except CCFError:
            report.liveness_violations.append(
                f"liveness: successor of {node_id} did not complete the join "
                f"path within {RECOVERY_BOUND}s"
            )
            return
        joined_from_disk = salvaged is not None and rejected is None
        if rejected is not None and corrupted:
            report.corruptions_detected += 1
            report.fault_log.append(
                (started, f"corruption detected on {node_id}: {rejected}")
            )
        elif rejected is not None:
            report.safety_violations.append(
                f"clean disk of {node_id} failed validation: {rejected}"
            )
        elif corrupted:
            report.safety_violations.append(
                f"injected corruption on {node_id} went UNDETECTED"
            )
        if joined_from_disk:
            report.disk_intact_restarts += 1
        else:
            report.disk_loss_restarts += 1
        try:
            service.trust_node(successor.node_id, replacing=node_id, timeout=RECOVERY_BOUND)
        except CCFError as exc:
            report.liveness_violations.append(
                f"liveness: replacement governance for {node_id} stuck: {exc}"
            )
            return
        # The successor takes the dead node's place in the load's rotation:
        # node ids are never reused, so a request sent to the old one only
        # waits out a (by now backed-off) timeout.
        client = self.client
        if node_id in client.fallback_nodes:
            client.fallback_nodes.remove(node_id)
        client.fallback_nodes.append(successor.node_id)
        if client.target_node == node_id:
            client.target_node = successor.node_id
        report.fault_log.append(
            (service.scheduler.now,
             f"restarted {node_id} as {successor.node_id} "
             f"({'disk-intact' if joined_from_disk else 'disk-loss'})")
        )


# The fault window: one round of injections, then this much simulated time.
STEP_DURATION = 0.25

# Per-step fault probabilities.
P_DISK_LOSS = 0.4  # given a crash: disk is lost, not salvaged
P_CORRUPT_DISK = 0.35  # given a salvaged disk: corrupt it
P_HEAL_PARTITION = 0.5
P_LINK_LOSS = 0.18
P_CLEAR_LINK_LOSS = 0.5
P_DUPLICATE = 0.2
P_DELAY_SPIKE = 0.2
P_GRAY = 0.15
P_CLEAR_GRAY = 0.5
P_CLOCK_SKEW = 0.15

# Fault magnitudes.
MAX_LINK_LOSS = 0.4
DUPLICATE_PROBABILITY = 0.1
SPIKE_PROBABILITY = 0.05
SPIKE_MAGNITUDE = 0.2
GRAY_SLOWDOWN = 0.03
SKEW_MIN = 0.6
SKEW_MAX = 1.8


class ChaosEngine(ScheduleEngine):
    """Runs seeded chaos schedules and aggregates their reports."""

    spec_type = ChaosSpec
    cli_flags = {"--nodes": "n_nodes", "--steps": "steps"}
    prog = "repro.sim.chaos"
    description = "Run seeded chaos schedules over the full CCF stack."
    all_clear = "all safety invariants held; all liveness bounds met"

    # ------------------------------------------------------------------

    def check_safety(self, engines: list) -> None:
        """Raise :class:`InvariantViolation` if a safety property is broken
        (a test subclass breaks it on purpose to prove violations replay)."""
        check_all_invariants(engines)

    def _safety_violation(self, cluster: ServiceCluster) -> str | None:
        try:
            self.check_safety(cluster.all_engines())
        except InvariantViolation as violation:  # recorded, not raised
            return str(violation)
        return None

    def _inject_step_faults(
        self, cluster: ServiceCluster, report: ScheduleReport, state: dict
    ) -> None:
        spec, service = self.spec, cluster.service
        rng, network = cluster.rng, service.network
        now = service.scheduler.now
        note = lambda kind, text: (  # noqa: E731 - tiny local helper
            report.fault_kinds.add(kind),
            report.fault_log.append((now, text)),
        )

        # Crashes (bounded to keep a quorum of the configuration alive).
        if (
            rng.random() < spec.p_crash
            and len(cluster.crashed) < (spec.n_nodes - 1) // 2
        ):
            candidates = [n.node_id for n in service.live_nodes()]
            if candidates:
                victim = candidates[rng.randrange(len(candidates))]
                disk_lost = rng.random() < P_DISK_LOSS
                cluster.crash_node(victim, disk_lost)
                kind = "crash-disk-loss" if disk_lost else "crash-disk-intact"
                note(kind, f"crash {victim} ({'disk lost' if disk_lost else 'disk intact'})")
                if not disk_lost and rng.random() < P_CORRUPT_DISK:
                    description = cluster.corrupt_salvaged_disk(victim)
                    if description is not None:
                        report.corruptions_injected += 1
                        note("disk-corruption", description)

        # Partitions.
        if state["partitioned"] and rng.random() < P_HEAL_PARTITION:
            network.heal()
            state["partitioned"] = False
            note("partition", "heal all partitions")
        elif not state["partitioned"] and rng.random() < spec.p_partition:
            ids = [n.node_id for n in service.live_nodes()]
            if len(ids) >= 3:
                rng.shuffle(ids)
                cut = max(1, len(ids) // 3)
                network.partition_groups(ids[:cut], ids[cut:])
                state["partitioned"] = True
                note("partition", f"partition {sorted(ids[:cut])} | {sorted(ids[cut:])}")

        # Per-link asymmetric loss.
        if state["lossy_links"] and rng.random() < P_CLEAR_LINK_LOSS:
            for src, dst in state["lossy_links"]:
                network.set_link_loss(src, dst, 0.0)
            state["lossy_links"] = []
            note("link-loss", "clear link loss")
        elif rng.random() < P_LINK_LOSS:
            ids = [n.node_id for n in service.live_nodes()]
            if len(ids) >= 2:
                src, dst = rng.sample(ids, 2)
                probability = rng.uniform(0.05, MAX_LINK_LOSS)
                network.set_link_loss(src, dst, probability)
                state["lossy_links"].append((src, dst))
                note("link-loss", f"link loss {src}->{dst} {probability:.0%}")

        # Duplication.
        if rng.random() < P_DUPLICATE:
            state["duplicating"] = not state["duplicating"]
            network.set_duplicate_probability(
                DUPLICATE_PROBABILITY if state["duplicating"] else 0.0
            )
            note("duplication", f"duplication {'on' if state['duplicating'] else 'off'}")

        # Delay spikes (reordering).
        if rng.random() < P_DELAY_SPIKE:
            state["spiking"] = not state["spiking"]
            if state["spiking"]:
                network.set_delay_spike(SPIKE_PROBABILITY, SPIKE_MAGNITUDE)
            else:
                network.set_delay_spike(0.0, 0.0)
            note("delay-spike", f"delay spikes {'on' if state['spiking'] else 'off'}")

        # Gray failure.
        if state["gray"] and rng.random() < P_CLEAR_GRAY:
            for node_id in state["gray"]:
                network.set_slowdown(node_id, 0.0)
            note("gray-failure", f"gray failure ends on {sorted(state['gray'])}")
            state["gray"] = []
        elif not state["gray"] and rng.random() < P_GRAY:
            ids = [n.node_id for n in service.live_nodes()]
            if ids:
                target = ids[rng.randrange(len(ids))]
                network.set_slowdown(target, GRAY_SLOWDOWN)
                state["gray"] = [target]
                note("gray-failure", f"gray failure on {target} (+{GRAY_SLOWDOWN}s)")

        # Clock skew.
        if rng.random() < P_CLOCK_SKEW:
            nodes = service.live_nodes()
            if nodes:
                target = nodes[rng.randrange(len(nodes))]
                scale = rng.uniform(SKEW_MIN, SKEW_MAX)
                target.consensus.timer_scale = scale
                note("clock-skew", f"clock skew {target.node_id} x{scale:.2f}")

    def _check_recovery(self, cluster: ServiceCluster, report: ScheduleReport) -> None:
        """Post-heal liveness: election, commit resumption, settled
        reconfigurations, client availability floor."""
        scheduler = cluster.service.scheduler
        violation = liveness.await_liveness(
            scheduler,
            lambda: liveness.has_live_primary(cluster.live_engines()),
            RECOVERY_BOUND,
            "primary re-election after heal",
        )
        if violation:
            report.liveness_violations.append(violation)
            return

        # Restart every crashed node through the real join path.
        for node_id in list(cluster.crashed):
            cluster.restart_crashed(node_id, report)

        baseline = liveness.max_commit(cluster.live_engines())
        violation = liveness.await_liveness(
            scheduler,
            lambda: liveness.commit_advanced(cluster.live_engines(), baseline),
            RECOVERY_BOUND,
            f"commit advance past {baseline}",
        )
        if violation:
            report.liveness_violations.append(violation)

        violation = liveness.await_liveness(
            scheduler,
            lambda: liveness.configurations_settled(cluster.live_engines()),
            RECOVERY_BOUND,
            "reconfigurations settled",
        )
        if violation:
            report.liveness_violations.append(violation)

        window_start = scheduler.now
        cluster.service.run(AVAILABILITY_WINDOW)
        violation = liveness.availability_floor(
            cluster.client.throughput.events,
            window_start,
            scheduler.now,
            MIN_POST_HEAL_EVENTS,
        )
        if violation:
            report.liveness_violations.append(violation)

    # ------------------------------------------------------------------

    def run_schedule(self, seed: int, tracer=None, obs=None) -> ScheduleReport:
        """One fully seeded schedule: fault window -> heal -> recovery
        checks. Deterministic: equal (seed, spec) gives equal reports.
        Pass a :class:`repro.sim.trace.TraceRecorder` as ``tracer`` to fold
        the run into a replay digest (the sanitizer's entry point), and/or
        an :class:`repro.obs.ObsCollector` as ``obs`` to record a causal
        span trace of the whole schedule."""
        # Host-side fast-path counters are attributable to one run only if
        # zeroed here; they are observability-only, so this cannot change
        # the schedule itself.
        reset_runtime_stats()
        report = ScheduleReport(seed=seed, spec=self.spec.to_dict())
        cluster = ServiceCluster(self.spec, seed, tracer=tracer, obs=obs)
        service = cluster.service
        state = dict(
            partitioned=False, lossy_links=[], gray=[], duplicating=False, spiking=False
        )

        for step in range(self.spec.steps):
            self._inject_step_faults(cluster, report, state)
            service.run(STEP_DURATION)
            report.steps_run += 1
            violation = self._safety_violation(cluster)
            if violation is not None:
                report.safety_violations.append(f"step {step}: {violation}")
                break

        service.network.clear_faults()
        for engine in cluster.all_engines():
            engine.timer_scale = 1.0
        report.fault_log.append((service.scheduler.now, "heal everything"))
        if not report.safety_violations:
            self._check_recovery(cluster, report)
            violation = self._safety_violation(cluster)
            if violation is not None:
                report.safety_violations.append(f"final: {violation}")

        cluster.client.stop()
        service.run(0.2)
        report.completed_requests = cluster.client.throughput.count
        report.client_errors = cluster.client.errors
        report.final_commit_seqno = liveness.max_commit(cluster.live_engines())
        return report

    def summarize(self, schedules: list[ScheduleReport]) -> list[str]:
        kinds = set().union(*(s.fault_kinds for s in schedules))
        return [
            f"chaos: {len(schedules)} schedules, "
            f"{sum(s.steps_run for s in schedules)} steps, "
            f"{sum(s.completed_requests for s in schedules)} client requests completed",
            f"fault kinds exercised: {', '.join(sorted(kinds)) or 'none'}",
            f"restarts: {sum(s.disk_intact_restarts for s in schedules)} disk-intact, "
            f"{sum(s.disk_loss_restarts for s in schedules)} disk-loss; "
            f"corruption detected {sum(s.corruptions_detected for s in schedules)}"
            f"/{sum(s.corruptions_injected for s in schedules)} injected",
        ]


if __name__ == "__main__":
    sys.exit(ChaosEngine.main())
