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

Every decision is drawn from the simulation's seeded RNG, so a schedule
is fully determined by ``(seed, ChaosSpec)`` and any reported violation
replays byte-identically:

    ChaosEngine(spec).run_schedule(seed)   # == the reported run

Run ``python -m repro.sim.chaos --schedules 5`` for the CI smoke mode.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.errors import CCFError, IntegrityError
from repro.net.network import LinkConfig
from repro.node import maps
from repro.node.config import NodeConfig
from repro.service.client import ClosedLoopClient, ServiceClient
from repro.service.service import CCFService, ServiceSetup
from repro.storage.host_storage import HostStorage
from repro.verification import liveness
from repro.verification.invariants import InvariantViolation, check_all_invariants


@dataclass(frozen=True)
class ChaosSpec:
    """Declarative shape of a chaos schedule. Together with a seed this is
    the complete, replayable description of a run."""

    n_nodes: int = 5
    steps: int = 6
    step_duration: float = 0.25
    client_concurrency: int = 2
    base_latency: float = 0.004  # slower-than-LAN links keep event counts sane
    signature_interval: int = 100
    # Pipelined execution knobs (PR 8): chaos schedules can run with the
    # primary batching writes and backups serving offloaded reads, so the
    # safety invariants and trace-digest determinism gates cover the
    # pipelined hot path too.
    batch_execution: bool = False
    read_offload: bool = False

    # Per-step fault probabilities.
    p_crash: float = 0.12
    p_disk_loss: float = 0.4  # given a crash: disk is lost, not salvaged
    p_corrupt_disk: float = 0.35  # given a salvaged disk: corrupt it
    p_partition: float = 0.12
    p_heal_partition: float = 0.5
    p_link_loss: float = 0.18
    p_clear_link_loss: float = 0.5
    p_duplicate: float = 0.2
    p_delay_spike: float = 0.2
    p_gray: float = 0.15
    p_clear_gray: float = 0.5
    p_clock_skew: float = 0.15

    # Fault magnitudes.
    max_link_loss: float = 0.4
    duplicate_probability: float = 0.1
    spike_probability: float = 0.05
    spike_magnitude: float = 0.2
    gray_slowdown: float = 0.03
    skew_min: float = 0.6
    skew_max: float = 1.8

    # Liveness bounds (simulated seconds).
    recovery_bound: float = 5.0
    availability_window: float = 1.0
    min_post_heal_events: int = 6

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
            not self.safety_violations
            and not self.liveness_violations
            and self.corruptions_detected == self.corruptions_injected
        )

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


@dataclass
class ChaosReport:
    """Aggregate over a batch of schedules."""

    schedules: list[ScheduleReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(schedule.ok for schedule in self.schedules)

    @property
    def failing_seeds(self) -> list[int]:
        return [schedule.seed for schedule in self.schedules if not schedule.ok]

    @property
    def fault_kinds(self) -> set[str]:
        kinds: set[str] = set()
        for schedule in self.schedules:
            kinds |= schedule.fault_kinds
        return kinds

    def summary(self) -> str:
        completed = sum(s.completed_requests for s in self.schedules)
        lines = [
            f"chaos: {len(self.schedules)} schedules, "
            f"{sum(s.steps_run for s in self.schedules)} steps, "
            f"{completed} client requests completed",
            f"fault kinds exercised: {', '.join(sorted(self.fault_kinds)) or 'none'}",
            f"restarts: {sum(s.disk_intact_restarts for s in self.schedules)} disk-intact, "
            f"{sum(s.disk_loss_restarts for s in self.schedules)} disk-loss; "
            f"corruption detected {sum(s.corruptions_detected for s in self.schedules)}"
            f"/{sum(s.corruptions_injected for s in self.schedules)} injected",
        ]
        for schedule in self.schedules:
            if not schedule.ok:
                lines.append(
                    f"FAIL seed={schedule.seed}: "
                    + "; ".join(schedule.safety_violations + schedule.liveness_violations)
                )
        if self.ok:
            lines.append("all safety invariants held; all liveness bounds met")
        return "\n".join(lines)


class ServiceCluster:
    """Full-stack harness for one schedule: a bootstrapped CCFService,
    closed-loop client load, and crash/restart bookkeeping."""

    def __init__(self, spec: ChaosSpec, seed: int, tracer=None, obs=None):
        self.spec = spec
        self.service = CCFService(ServiceSetup(
            n_nodes=spec.n_nodes,
            node_config=NodeConfig(
                signature_interval=spec.signature_interval,
                batch_execution=spec.batch_execution,
                read_offload=spec.read_offload,
            ),
            link=LinkConfig(base_latency=spec.base_latency, jitter=spec.base_latency / 5),
            seed=seed,
        ))
        if tracer is not None:
            # Attach before bootstrap so the bootstrap events (and every RNG
            # draw from here on) land in the trace.
            self.service.scheduler.attach_tracer(tracer)
        if obs is not None:
            # Same discipline for the observability collector: nodes created
            # during bootstrap self-wire off scheduler.obs, so the whole
            # lifecycle (genesis onward) lands in the span trace.
            obs.attach_to_service(self.service)
        self.service.bootstrap()
        self.scheduler = self.service.scheduler
        self.network = self.service.network
        self.rng = self.scheduler.rng
        # (node_id -> (salvaged disk or None, last persisted seqno, corrupted?))
        self.crashed: dict[str, tuple[HostStorage | None, int, bool]] = {}
        self.client = self._start_load()

    def _start_load(self):
        user = self.service.users[0]
        credentials = {"certificate": user.certificate.to_dict()}
        endpoint = ServiceClient(
            self.scheduler, self.network, name="chaos-load", identity=user
        )
        primary = self.service.primary_node()
        client = ClosedLoopClient(
            endpoint,
            primary.node_id,
            lambda i: ("/app/write_message", {"id": i % 100, "msg": f"v{i}"}, credentials),
            concurrency=self.spec.client_concurrency,
            fallback_nodes=[n.node_id for n in self.service.backup_nodes()],
            retry_timeout=0.1,
        )
        client.start()
        return client

    # ------------------------------------------------------------------

    def live_nodes(self) -> list:
        return [
            node for node in self.service.nodes.values()
            if not node.stopped and node.consensus is not None
        ]

    def live_engines(self) -> list:
        return [node.consensus for node in self.live_nodes()]

    def all_engines(self) -> list:
        return [
            node.consensus for node in self.service.nodes.values()
            if node.consensus is not None
        ]

    def max_concurrent_crashes(self) -> int:
        return (self.spec.n_nodes - 1) // 2

    def crash_node(self, node_id: str, disk_lost: bool) -> HostStorage | None:
        """Crash with disk intact (salvage the host storage) or with disk
        loss (nothing survives)."""
        node = self.service.nodes[node_id]
        salvaged = None if disk_lost else node.storage.clone()
        persisted = 0 if disk_lost else node.persisted_seqno
        node.crash()
        self.crashed[node_id] = (salvaged, persisted, False)
        return salvaged

    def corrupt_salvaged_disk(self, node_id: str) -> str | None:
        """Tamper with a crashed node's salvaged disk: flip a byte in a
        complete chunk, or truncate trailing chunks. Returns a description,
        or None when the disk has nothing to corrupt."""
        salvaged, persisted, _ = self.crashed[node_id]
        if salvaged is None:
            return None
        complete = [
            name for name in salvaged.list_files("ledger_")
            if not name.endswith(".open.chunk")
        ]
        if not complete:
            return None
        if len(complete) > 1 and self.rng.random() < 0.5:
            salvaged.tamper_truncate_ledger(keep_chunks=len(complete) - 1)
            description = f"truncate disk of {node_id}"
        else:
            name = complete[self.rng.randrange(len(complete))]
            offset = self.rng.randrange(24, max(25, len(salvaged.read(name))))
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
        primary = self.service.primary_node()
        if primary is None:
            report.liveness_violations.append(
                f"liveness: no primary available to rejoin {node_id}"
            )
            return
        successor = self.service.new_node()
        joined_from_disk = False
        if salvaged is not None:
            try:
                successor.join.restart_from_disk(
                    salvaged, primary.node_id, primary.service_certificate,
                    expected_seqno=persisted,
                )
                joined_from_disk = True
            except IntegrityError as exc:
                if corrupted:
                    report.corruptions_detected += 1
                    report.fault_log.append(
                        (self.scheduler.now, f"corruption detected on {node_id}: {exc}")
                    )
                else:
                    report.safety_violations.append(
                        f"clean disk of {node_id} failed validation: {exc}"
                    )
            else:
                if corrupted:
                    report.safety_violations.append(
                        f"injected corruption on {node_id} went UNDETECTED"
                    )
        if not joined_from_disk:
            # Disk lost (or rejected): join with nothing, like a new machine.
            successor.request_join(primary.node_id, primary.service_certificate)
        if joined_from_disk:
            report.disk_intact_restarts += 1
        else:
            report.disk_loss_restarts += 1
        try:
            self.service.run_until(
                lambda: successor.consensus is not None,
                timeout=self.spec.recovery_bound,
            )
        except CCFError:
            report.liveness_violations.append(
                f"liveness: successor of {node_id} did not complete the join "
                f"path within {self.spec.recovery_bound}s"
            )
            return
        def successor_recorded() -> bool:
            # The PENDING record can be rolled back by an election after the
            # join response was already delivered; the joiner re-sends until
            # it sticks, so wait for it on whoever is primary *now*.
            primary_now = self.service.primary_node()
            return (
                primary_now is not None
                and primary_now.store.get(maps.NODES_INFO, successor.node_id)
                is not None
            )

        governance_error: CCFError | None = None
        for _attempt in range(3):
            # A mid-recovery election can yield the primary out from under a
            # governance round — wait one out and retry rather than fail.
            if liveness.await_liveness(
                self.scheduler,
                successor_recorded,
                self.spec.recovery_bound,
                "join record for replacement governance",
            ):
                governance_error = CCFError("successor never recorded on a primary")
                continue
            try:
                self.service.run_governance([
                    {"name": "transition_node_to_trusted",
                     "args": {"node_id": successor.node_id}},
                    {"name": "remove_node", "args": {"node_id": node_id}},
                ], timeout=self.spec.recovery_bound)
                governance_error = None
                break
            except CCFError as exc:
                governance_error = exc
        if governance_error is not None:
            report.liveness_violations.append(
                f"liveness: replacement governance for {node_id} stuck: "
                f"{governance_error}"
            )
            return
        self.client.fallback_nodes.append(successor.node_id)
        report.fault_log.append(
            (self.scheduler.now,
             f"restarted {node_id} as {successor.node_id} "
             f"({'disk-intact' if joined_from_disk else 'disk-loss'})")
        )

    def heal_everything(self) -> None:
        self.network.clear_faults()
        for engine in self.all_engines():
            engine.timer_scale = 1.0


class ChaosEngine:
    """Runs seeded chaos schedules and aggregates their reports.

    ``extra_invariants`` are additional callables ``f(engines) -> None``
    checked alongside the safety invariants — tests use a deliberately
    broken one to prove violations replay byte-identically. They must
    signal violations by raising :class:`InvariantViolation`; any other
    exception is a bug in the invariant itself and propagates.
    """

    def __init__(self, spec: ChaosSpec | None = None, extra_invariants=()):
        self.spec = spec if spec is not None else ChaosSpec()
        self.extra_invariants = tuple(extra_invariants)

    # ------------------------------------------------------------------

    def _check_safety(self, cluster: ServiceCluster) -> str | None:
        engines = cluster.all_engines()
        try:
            check_all_invariants(engines)
            for invariant in self.extra_invariants:
                invariant(engines)
        except InvariantViolation as violation:  # recorded, not raised
            return str(violation)
        return None

    def _inject_step_faults(
        self, cluster: ServiceCluster, report: ScheduleReport, state: dict
    ) -> None:
        spec, rng = self.spec, cluster.rng
        now = cluster.scheduler.now
        note = lambda kind, text: (  # noqa: E731 - tiny local helper
            report.fault_kinds.add(kind),
            report.fault_log.append((now, text)),
        )

        # Crashes (bounded to keep a quorum of the configuration alive).
        if (
            rng.random() < spec.p_crash
            and len(cluster.crashed) < cluster.max_concurrent_crashes()
        ):
            candidates = [n.node_id for n in cluster.live_nodes()]
            if candidates:
                victim = candidates[rng.randrange(len(candidates))]
                disk_lost = rng.random() < spec.p_disk_loss
                cluster.crash_node(victim, disk_lost)
                kind = "crash-disk-loss" if disk_lost else "crash-disk-intact"
                note(kind, f"crash {victim} ({'disk lost' if disk_lost else 'disk intact'})")
                if not disk_lost and rng.random() < spec.p_corrupt_disk:
                    description = cluster.corrupt_salvaged_disk(victim)
                    if description is not None:
                        report.corruptions_injected += 1
                        note("disk-corruption", description)

        # Partitions.
        if state["partitioned"] and rng.random() < spec.p_heal_partition:
            cluster.network.heal()
            state["partitioned"] = False
            note("partition", "heal all partitions")
        elif not state["partitioned"] and rng.random() < spec.p_partition:
            ids = [n.node_id for n in cluster.live_nodes()]
            if len(ids) >= 3:
                rng.shuffle(ids)
                cut = max(1, len(ids) // 3)
                cluster.network.partition_groups(ids[:cut], ids[cut:])
                state["partitioned"] = True
                note("partition", f"partition {sorted(ids[:cut])} | {sorted(ids[cut:])}")

        # Per-link asymmetric loss.
        if state["lossy_links"] and rng.random() < spec.p_clear_link_loss:
            for src, dst in state["lossy_links"]:
                cluster.network.set_link_loss(src, dst, 0.0)
            state["lossy_links"] = []
            note("link-loss", "clear link loss")
        elif rng.random() < spec.p_link_loss:
            ids = [n.node_id for n in cluster.live_nodes()]
            if len(ids) >= 2:
                src, dst = rng.sample(ids, 2)
                probability = rng.uniform(0.05, spec.max_link_loss)
                cluster.network.set_link_loss(src, dst, probability)
                state["lossy_links"].append((src, dst))
                note("link-loss", f"link loss {src}->{dst} {probability:.0%}")

        # Duplication.
        if rng.random() < spec.p_duplicate:
            active = cluster.network._duplicate_probability > 0
            cluster.network.set_duplicate_probability(
                0.0 if active else spec.duplicate_probability
            )
            note("duplication", "duplication off" if active else "duplication on")

        # Delay spikes (reordering).
        if rng.random() < spec.p_delay_spike:
            active = cluster.network._spike_probability > 0
            if active:
                cluster.network.set_delay_spike(0.0, 0.0)
                note("delay-spike", "delay spikes off")
            else:
                cluster.network.set_delay_spike(
                    spec.spike_probability, spec.spike_magnitude
                )
                note("delay-spike", "delay spikes on")

        # Gray failure.
        if state["gray"] and rng.random() < spec.p_clear_gray:
            for node_id in state["gray"]:
                cluster.network.set_slowdown(node_id, 0.0)
            note("gray-failure", f"gray failure ends on {sorted(state['gray'])}")
            state["gray"] = []
        elif not state["gray"] and rng.random() < spec.p_gray:
            ids = [n.node_id for n in cluster.live_nodes()]
            if ids:
                target = ids[rng.randrange(len(ids))]
                cluster.network.set_slowdown(target, spec.gray_slowdown)
                state["gray"] = [target]
                note("gray-failure", f"gray failure on {target} (+{spec.gray_slowdown}s)")

        # Clock skew.
        if rng.random() < spec.p_clock_skew:
            nodes = cluster.live_nodes()
            if nodes:
                target = nodes[rng.randrange(len(nodes))]
                scale = rng.uniform(spec.skew_min, spec.skew_max)
                target.consensus.timer_scale = scale
                note("clock-skew", f"clock skew {target.node_id} x{scale:.2f}")

    def _check_recovery(self, cluster: ServiceCluster, report: ScheduleReport) -> None:
        """Post-heal liveness: election, commit resumption, settled
        reconfigurations, client availability floor."""
        spec = self.spec
        scheduler = cluster.scheduler
        violation = liveness.await_liveness(
            scheduler,
            lambda: liveness.has_live_primary(cluster.live_engines()),
            spec.recovery_bound,
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
            spec.recovery_bound,
            f"commit advance past {baseline}",
        )
        if violation:
            report.liveness_violations.append(violation)

        violation = liveness.await_liveness(
            scheduler,
            lambda: liveness.configurations_settled(cluster.live_engines()),
            spec.recovery_bound,
            "reconfigurations settled",
        )
        if violation:
            report.liveness_violations.append(violation)

        window_start = scheduler.now
        cluster.service.run(spec.availability_window)
        violation = liveness.availability_floor(
            cluster.client.throughput.events,
            window_start,
            scheduler.now,
            spec.min_post_heal_events,
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
        from repro.obs.metrics import reset_runtime_stats

        # Host-side fast-path counters are attributable to one run only if
        # zeroed here; they are observability-only, so this cannot change
        # the schedule itself.
        reset_runtime_stats()
        report = ScheduleReport(seed=seed, spec=self.spec.to_dict())
        cluster = ServiceCluster(self.spec, seed, tracer=tracer, obs=obs)
        state = {"partitioned": False, "lossy_links": [], "gray": []}

        for step in range(self.spec.steps):
            self._inject_step_faults(cluster, report, state)
            cluster.service.run(self.spec.step_duration)
            report.steps_run += 1
            violation = self._check_safety(cluster)
            if violation is not None:
                report.safety_violations.append(f"step {step}: {violation}")
                break

        cluster.heal_everything()
        state.update(partitioned=False, lossy_links=[], gray=[])
        report.fault_log.append((cluster.scheduler.now, "heal everything"))
        if not report.safety_violations:
            self._check_recovery(cluster, report)
            violation = self._check_safety(cluster)
            if violation is not None:
                report.safety_violations.append(f"final: {violation}")

        cluster.client.stop()
        cluster.service.run(0.2)
        report.completed_requests = cluster.client.throughput.count
        report.client_errors = cluster.client.errors
        report.final_commit_seqno = liveness.max_commit(cluster.live_engines())
        return report

    def run(self, schedules: int = 20, base_seed: int = 0) -> ChaosReport:
        report = ChaosReport()
        for index in range(schedules):
            report.schedules.append(self.run_schedule(base_seed * 10_007 + index))
        return report


# ----------------------------------------------------------------------
# CLI (used by CI's chaos smoke)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.sim.chaos",
        description="Run seeded chaos schedules over the full CCF stack.",
    )
    parser.add_argument("--schedules", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument("--nodes", type=int, default=None)
    parser.add_argument("--steps", type=int, default=None)
    args = parser.parse_args(argv)

    spec = ChaosSpec()
    overrides = {}
    if args.nodes is not None:
        overrides["n_nodes"] = args.nodes
    if args.steps is not None:
        overrides["steps"] = args.steps
    if overrides:
        spec = dataclasses.replace(spec, **overrides)

    engine = ChaosEngine(spec)
    report = engine.run(schedules=args.schedules, base_seed=args.seed)
    print(report.summary())
    if not report.ok:
        for seed in report.failing_seeds:
            print(
                f"REPRODUCE with: python -m repro.sim.chaos --schedules 1 "
                f"--seed {seed}"
                + (f" --nodes {spec.n_nodes}" if args.nodes is not None else "")
                + (f" --steps {spec.steps}" if args.steps is not None else "")
            )
        return 1
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
