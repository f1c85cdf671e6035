"""Bounded adversarial exploration of the consensus protocol: the randomized
counterpart of :mod:`repro.verification.model`'s exhaustive search (the
paper's TLA+ model checking [88]).

Seeded schedules drive real consensus engines and ledgers over a simulated
network (:class:`repro.verification.harness.Cluster`) through crashes and
restarts of a minority, partitions, heals and message loss, with writes and
signatures at the primary, and check every safety invariant after every
step. The explorer runs on the schedule runner (:mod:`repro.sim.runner`):

    python -m repro.verification.explorer --schedules 20 --replay-check 2
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from repro.errors import NotPrimaryError
from repro.sim.runner import ScheduleEngine
from repro.verification.harness import Cluster
from repro.verification.invariants import InvariantViolation, check_all_invariants

LOSS_PROBABILITY = 0.05


@dataclass(frozen=True)
class ExploreSpec:
    """With a seed, the complete description of an exploration schedule."""

    n_nodes: int = 3
    steps: int = 40


@dataclass
class ExploreReport:
    """Outcome of one seeded schedule."""

    seed: int
    steps_checked: int = 0
    elections: int = 0
    commit_seqno: int = 0
    fault_log: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def fingerprint(self) -> str:
        return "\n".join(
            [f"seed={self.seed}", *self.fault_log]
            + [f"SAFETY {failure}" for failure in self.failures]
            + [f"steps={self.steps_checked} elections={self.elections} "
               f"commit={self.commit_seqno}"]
        )


class ExplorerEngine(ScheduleEngine):
    """Runs seeded adversarial schedules over bare consensus engines."""

    spec_type = ExploreSpec
    cli_flags = {"--nodes": "n_nodes", "--steps": "steps"}
    prog = "repro.verification.explorer"
    description = "Run seeded adversarial schedules over bare consensus engines."
    all_clear = "all safety invariants held"

    def check_safety(self, engines: list) -> None:
        """Raise :class:`InvariantViolation` if a safety property is broken."""
        check_all_invariants(engines)

    def run_schedule(self, seed: int, tracer=None, obs=None) -> ExploreReport:
        """One schedule: each step may inject a fault or write at the
        primary, advances simulated time, then checks safety."""
        n_nodes = self.spec.n_nodes
        report = ExploreReport(seed=seed)
        faults = report.fault_log
        cluster = Cluster(n_nodes, seed=seed, tracer=tracer, obs=obs)
        cluster.start()
        engines = [host.consensus for host in cluster.hosts.values()]
        network, rng = cluster.network, cluster.scheduler.rng
        network.set_loss_probability(LOSS_PROBABILITY)
        crashed: list[str] = []
        partitioned = False
        for step in range(self.spec.steps):
            action = rng.random()
            if action < 0.15 and len(crashed) < (n_nodes - 1) // 2:
                victim = rng.choice([h.node_id for h in cluster.alive_hosts()])
                network.crash(victim)
                crashed.append(victim)
                faults.append(f"{step} crash {victim}")
            elif action < 0.25 and crashed:
                # A stop-failure that kept its ledger, not a disk loss.
                revived = crashed.pop(rng.randrange(len(crashed)))
                network.restart(revived)
                cluster.hosts[revived].consensus.resume()
                faults.append(f"{step} restart {revived}")
            elif action < 0.35 and not partitioned and n_nodes >= 3:
                ids = [h.node_id for h in cluster.alive_hosts()]
                rng.shuffle(ids)
                cut = max(1, len(ids) // 3)
                network.partition_groups(ids[:cut], ids[cut:])
                partitioned = True
                faults.append(f"{step} partition {ids[:cut]} {ids[cut:]}")
            elif action < 0.45 and partitioned:
                network.heal()
                partitioned = False
                faults.append(f"{step} heal")
            elif action < 0.8:
                primary = cluster.primary()
                if primary is not None and not network.is_down(primary.node_id):
                    try:
                        primary.submit_write(("k", step), rng.randrange(1000))
                        if rng.random() < 0.4:
                            primary.sign_now()
                    except NotPrimaryError:
                        pass  # lost primacy between check and call
            cluster.run(rng.uniform(0.02, 0.3))
            try:
                self.check_safety(engines)
            except InvariantViolation as violation:  # recorded, not raised
                report.failures.append(f"step {step}: {violation}")
                break
            report.steps_checked += 1
        report.elections = sum(engine.elections_started for engine in engines)
        report.commit_seqno = max(engine.commit_seqno for engine in engines)
        return report

    def summarize(self, schedules: list[ExploreReport]) -> list[str]:
        return [
            f"explorer: {len(schedules)} schedules over {self.spec.n_nodes} nodes, "
            f"{sum(s.steps_checked for s in schedules)} steps checked, "
            f"{sum(s.elections for s in schedules)} elections started, "
            f"{sum(s.commit_seqno for s in schedules)} entries committed",
        ]


if __name__ == "__main__":
    sys.exit(ExplorerEngine.main())
