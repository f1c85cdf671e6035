"""The five workloads.

Each workload runs *repetitions*. A repetition builds what it needs (its
set-up), runs a timed region on the host clock, drains, and returns a
:class:`Rep`: simulated-clock metrics (deterministic per seed), host-clock
durations, a fingerprint for the determinism check and the list of output
checks that failed. ``runner.py`` turns repetitions into the reported
metrics; the README says why each workload exists.

All workloads: logging app, native runtime, ``sgx`` cost model, default
``LinkConfig``, ``signature_interval=20``, ``signature_flush_time=0.01``,
20-character private messages, a 1,000-key space pre-populated on a 50-key
grid, 50 simulated clients. One OS process, one thread.
"""

from __future__ import annotations

import bisect
import gc
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.ledger.entry import TxID
from repro.obs.checker import check_trace
from repro.obs.collector import ObsCollector
from repro.obs.profile import profile_spans

from benchmarks.e2e import checks
from benchmarks.e2e.cluster import (
    KEY_GRID,
    KEY_SPACE,
    build_service,
    live_nodes,
    message_for,
    new_joiner,
    preload,
)
from benchmarks.e2e.loadgen import (
    ClosedLoop,
    OpenLoop,
    Record,
    percentile,
    read_source,
    write_source,
)

CLIENTS = 50
DRAIN_TIMEOUT = 2.0  # sim-seconds a drain may take before it is a failure
JOIN_TIMEOUT = 5.0  # sim-seconds a join may take before it counts as failed


@dataclass
class Rep:
    """What one repetition measured."""

    variant: int
    ops: int  # operations completed in the timed region
    attempted: int
    failed: int
    window_ns: int  # host time of the timed region
    setup_ns: int | None  # host time before it (None: set up by an earlier repetition)
    sim: dict[str, float]
    fingerprint: tuple | None = None  # None: repetitions share state, not comparable
    problems: list[str] = field(default_factory=list)
    facts: dict = field(default_factory=dict)  # counts for the report and the trace


class Region:
    """The timed region of a repetition on the host clock. May be entered
    more than once (``write_5n_obs`` times its window and, after the drain,
    its trace analysis); the tracer records spans only inside it."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ns = 0
        self.first_start_ns: int | None = None

    @contextmanager
    def timed(self):
        gc.collect()
        start = time.perf_counter_ns()
        if self.first_start_ns is None:
            self.first_start_ns = start
        if self.tracer is not None:
            self.tracer.resume()
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.pause()
            self.ns += time.perf_counter_ns() - start


class CommitWatch:
    """When each seqno became globally committed, seen from outside: an
    instance-level wrapper on every node's ``on_commit`` (the
    ``ConsensusHost`` callback), recording while that node is primary."""

    def __init__(self, service):
        self.events: list[tuple[float, str, int]] = []  # (sim time, node, seqno)
        for node in service.nodes.values():
            self._watch(node)

    def _watch(self, node) -> None:
        original = node.on_commit

        def on_commit(seqno: int) -> None:
            if node.consensus.is_primary:
                self.events.append((node.scheduler.now, node.node_id, seqno))
            original(seqno)

        node.on_commit = on_commit

    def times_for(self, seqnos: list[int]) -> list[float | None]:
        """Sim time at which each seqno was first covered by a commit."""
        marks: list[int] = []
        times: list[float] = []
        for at, _node, seqno in self.events:
            if not marks or seqno > marks[-1]:
                marks.append(seqno)
                times.append(at)
        out: list[float | None] = []
        for seqno in seqnos:
            index = bisect.bisect_left(marks, seqno)
            out.append(times[index] if index < len(marks) else None)
        return out

    def committed_by(self, node_id: str, before: float) -> int:
        """Highest seqno ``node_id`` had committed as primary by ``before``."""
        return max(
            (seqno for at, node, seqno in self.events if node == node_id and at < before),
            default=0,
        )


def drain(service, loop) -> float | None:
    """Run until the service is quiet: the generator has nothing
    outstanding, every live node holds the primary's last entry and the
    primary has committed it. Returns the sim-seconds it took, or None if
    it did not happen within ``DRAIN_TIMEOUT``."""
    scheduler = service.scheduler
    start = scheduler.now

    def quiet() -> bool:
        if loop.outstanding:
            return False
        primary = service.primary_node()
        if primary is None:
            return False
        last = primary.ledger.last_seqno
        if primary.consensus.commit_seqno != last:
            return False
        return all(node.ledger.last_seqno == last for node in live_nodes(service))

    while not quiet():
        if scheduler.now - start > DRAIN_TIMEOUT or not scheduler.step():
            return None
    return scheduler.now - start


def request_metrics(
    records: list[Record], start: float, end: float, commits: CommitWatch | None
) -> tuple[dict[str, float], dict]:
    """Throughput, latency and commit latency of the 2xx replies received
    in the sim window ``[start, end)``."""
    done = [r for r in records if r.ok and start <= r.received < end]
    latencies = [r.received - r.due for r in done]
    sim = {
        "sim_ops_per_s": len(done) / (end - start),
        "sim_latency_p50_ms": percentile(latencies, 50) * 1e3,
        "sim_latency_p99_ms": percentile(latencies, 99) * 1e3,
    }
    facts = {"ops": len(done), "latency_samples": len(latencies)}
    if commits is not None:
        times = commits.times_for([r.seqno for r in done])
        waits = [at - r.due for at, r in zip(times, done) if at is not None]
        facts["commit_samples"] = len(waits)
        facts["uncommitted"] = len(done) - len(waits)
        sim["sim_commit_p50_ms"] = percentile(waits, 50) * 1e3
        sim["sim_commit_p99_ms"] = percentile(waits, 99) * 1e3
    else:
        # A read-only request commits nothing: its result is final when the
        # reply arrives, so commit latency is reply latency.
        sim["sim_commit_p50_ms"] = sim["sim_latency_p50_ms"]
        sim["sim_commit_p99_ms"] = sim["sim_latency_p99_ms"]
    return sim, facts


def fill_empty_cells(sim: dict[str, float]) -> None:
    """The benchmark contract wants every metric on every workload. Where
    one has no meaning, the cell repeats the nearest steady quantity of the
    same run (README, "Every metric on every workload")."""
    # No fault injected: the longest a request goes unserved is its tail latency.
    sim.setdefault("sim_unavailable_ms", sim["sim_latency_p99_ms"])
    # No node joins: the median time a majority of backups needs to catch
    # up with a write is what its commit waits for.
    sim.setdefault("sim_catchup_ms", sim["sim_commit_p50_ms"])


def fingerprint(service, records: list[Record]) -> tuple:
    return (
        sum(1 for record in records if record.ok),
        service.primary_node().ledger.root().hex(),
        service.scheduler.events_processed,
    )


class Workload:
    """Base: parameters, and the cluster seed of a variant.

    ``samples`` is how many leading repetitions differ by design; their
    simulated metrics are combined by the median. It is 1 where one seed
    gives one steady answer. ``failover_5n`` hangs on a randomized election
    and ``catchup_3n`` on a replication stream that pipelines or stalls, so
    one draw per run would be mostly noise: repetition ``i`` of the former
    runs cluster-seed variant ``i % samples`` (repetitions of one variant
    must be identical), and each join of the latter meets a ledger two
    entries longer than the one before."""

    name = ""
    samples = 1
    min_reps = 3
    # Host throughput from all repetitions' time instead of the fastest's:
    # for repetitions that do different amounts of work by design.
    pool_host_time = False

    def __init__(self, seed: int, quick: bool, tracer=None):
        self.seed = seed
        self.quick = quick  # one repetition, shortened windows (self-tests)
        self.tracer = tracer
        if quick:
            self.samples = self.min_reps = 1

    def cluster_seed(self, variant: int) -> int:
        return self.seed + 7919 * variant

    def rep(self, variant: int, check: bool = True) -> Rep:
        """One repetition. ``check`` runs the output checks that read the
        service's state; a twin of a checked repetition skips them (its
        fingerprint says it ended in the same state)."""
        raise NotImplementedError


class ClosedLoopWorkload(Workload):
    """5 nodes, 50 closed-loop clients, a warm-up and a measured window."""

    reads = False
    observed = False
    warmup = 0.01
    window = 0.03

    def rep(self, variant: int, check: bool = True) -> Rep:
        started = time.perf_counter_ns()
        window = self.window / 4 if self.quick else self.window
        observer = ObsCollector(seed=self.seed) if self.observed else None
        service = build_service(5, self.cluster_seed(variant), observer=observer)
        written = preload(service)
        scheduler = service.scheduler
        primary = service.primary_node()
        if self.reads:
            commits = None
            targets = sorted(service.nodes)
            source = read_source(self.seed, KEY_SPACE, KEY_GRID)
        else:
            commits = CommitWatch(service)
            targets = [primary.node_id]
            source = write_source(self.seed, KEY_SPACE, message_for)
        loop = ClosedLoop(service, targets, source, CLIENTS)
        loop.start()
        service.run(self.warmup)
        elections_before = _elections(service)

        region = Region(self.tracer)
        start, events_before = scheduler.now, scheduler.events_processed
        with region.timed():
            service.run(window)
        end, events = scheduler.now, scheduler.events_processed - events_before
        loop.stop()
        drained = drain(service, loop)
        print_of_run = fingerprint(service, loop.records)  # before the checks add events

        problems: list[str] = []
        facts: dict = {"events": events, "primaries": [primary.node_id]}
        facts.update(_election_facts(service, elections_before))
        if observer is not None:
            with region.timed():
                profile = profile_spans(observer.spans)
                conformance = check_trace(observer.spans)
            facts["obs_spans"] = len(observer.spans)
            facts["profiled_requests"] = len(profile.profiles)
            if not conformance.ok:
                problems.append(f"trace conformance: {conformance.violation}")
            problems += checks.causal_trees(observer.spans)

        sim, more = request_metrics(loop.records, start, end, commits)
        facts.update(more)
        fill_empty_cells(sim)
        facts["drain_ms"] = None if drained is None else drained * 1e3
        if drained is None:
            problems.append(f"service not quiet {DRAIN_TIMEOUT} sim-s after the window")
        failed = sum(1 for record in loop.records if not record.ok)
        if check:
            problems += checks.ledgers_agree(service)
            problems += checks.ledger_audits(service)
            if self.reads:
                problems += checks.reads_match(loop.records, written)
            else:
                problems += checks.reads_back(service, loop.records, written, self.seed)
        return Rep(
            variant=variant,
            ops=facts["ops"],
            attempted=len(loop.records),
            failed=failed,
            window_ns=region.ns,
            setup_ns=region.first_start_ns - started,
            sim=sim,
            fingerprint=print_of_run,
            problems=problems,
            facts=facts,
        )


class Write5n(ClosedLoopWorkload):
    name = "write_5n"


class Read5n(ClosedLoopWorkload):
    name = "read_5n"
    reads = True
    window = 0.4


class Write5nObs(ClosedLoopWorkload):
    name = "write_5n_obs"
    observed = True


class Catchup3n(Workload):
    """3 nodes loaded once with distinct-key writes; every repetition joins
    a fresh node (chunked snapshot + suffix replay) and crashes it again.

    The request metrics (``sim_ops_per_s``, latency, commit latency) are
    those of the load phase — 50 closed-loop writers on three nodes."""

    name = "catchup_3n"
    samples = 10
    min_reps = 10
    pool_host_time = True  # a join replays in 145-396 events, as the windows fall
    entries = 7000
    snapshot_interval = 4000

    def __init__(self, seed: int, quick: bool, tracer=None):
        super().__init__(seed, quick, tracer)
        self.service = None
        self.load_ns = 0
        self.load_sim: dict[str, float] = {}
        self.load_facts: dict = {}
        self.load_problems: list[str] = []

    def _load(self) -> None:
        started = time.perf_counter_ns()
        entries = self.entries // 4 if self.quick else self.entries
        interval = self.snapshot_interval // 4 if self.quick else self.snapshot_interval
        service = build_service(3, self.seed, snapshot_interval=interval)
        commits = CommitWatch(service)
        primary = service.primary_node()
        counter = iter(range(entries))

        def source() -> tuple[str, dict]:
            index = next(counter)
            return "/app/write_message", {"id": index, "msg": message_for(index)}

        loop = ClosedLoop(service, [primary.node_id], source, CLIENTS, limit=entries)
        loop.start()
        service.run(0.01)  # the same warm-up as the five-node workloads
        start = service.scheduler.now
        service.run_until(
            lambda: len(loop.records) == entries and not loop.outstanding, timeout=60.0
        )
        end = service.scheduler.now
        if drain(service, loop) is None:
            self.load_problems.append("load phase did not drain")
        self.load_sim, self.load_facts = request_metrics(loop.records, start, end, commits)
        if any(not record.ok for record in loop.records):
            self.load_problems.append("a load-phase write failed")
        self.load_problems += checks.reads_back(service, loop.records, {}, self.seed)
        self.service = service
        self.load_ns = time.perf_counter_ns() - started

    def rep(self, variant: int, check: bool = True) -> Rep:
        first = self.service is None
        if first:
            self._load()
        service = self.service
        scheduler = service.scheduler
        primary = service.primary_node()
        joiner = new_joiner(service)
        target = primary.consensus.commit_seqno
        region = Region(self.tracer)
        installed_at = None
        elections_before = _elections(service)
        events_before = scheduler.events_processed
        start = scheduler.now
        with region.timed():
            joiner.request_join(primary.node_id, primary.service_certificate)
            while not (
                joiner.consensus is not None and joiner.ledger.last_seqno >= target
            ):
                if scheduler.now - start > JOIN_TIMEOUT or not scheduler.step():
                    break
                if installed_at is None and joiner.consensus is not None:
                    installed_at = scheduler.now
        caught_up = joiner.consensus is not None and joiner.ledger.last_seqno >= target
        elapsed = scheduler.now - start

        problems = list(self.load_problems) if first else []
        facts = dict(self.load_facts) if first else {}
        facts.update(
            events=scheduler.events_processed - events_before,
            primaries=[primary.node_id],
            target_seqno=target,
            snapshot_base=joiner.ledger.base_seqno if joiner.ledger else 0,
            chunks_fetched=len(joiner.storage.state_chunk_ids()),
        )
        facts.update(_election_facts(service, elections_before))
        sim = dict(self.load_sim)
        if caught_up:
            sim["sim_catchup_ms"] = elapsed * 1e3
            sim["sim_unavailable_ms"] = (installed_at - start) * 1e3
            if facts["snapshot_base"] <= 0:
                problems.append("the joiner replayed the whole ledger: no snapshot served")
            if check:
                problems += checks.joiner_matches(service, joiner)
        else:
            problems.append(f"join not caught up within {JOIN_TIMEOUT} sim-s")
        # Crash the joiner so that the next repetition sees the same three
        # nodes (plus one more retired learner the primary no longer reaches).
        joiner.crash()
        return Rep(
            variant=variant,
            ops=target if caught_up else 0,
            attempted=1,
            failed=0 if caught_up else 1,
            window_ns=region.ns,
            setup_ns=self.load_ns if first else None,  # the one-off load
            sim=sim,
            problems=problems,
            facts=facts,
        )


class Failover5n(Workload):
    """5 nodes, open loop, the primary killed part-way: the only run with a
    fault injected."""

    name = "failover_5n"
    samples = 6
    min_reps = 7  # six variants, and the first once more as its twin
    period = 0.001
    total = 1.2
    kill_at = 0.3

    def rep(self, variant: int, check: bool = True) -> Rep:
        started = time.perf_counter_ns()
        total = self.total / 2 if self.quick else self.total
        kill_at = self.kill_at / 2 if self.quick else self.kill_at
        service = build_service(5, self.cluster_seed(variant))
        written = preload(service)
        scheduler = service.scheduler
        commits = CommitWatch(service)
        old_primary = service.primary_node()
        elections_before = _elections(service)
        loop = OpenLoop(
            service,
            nodes=sorted(service.nodes),
            first_target=old_primary.node_id,
            source=write_source(self.seed, KEY_SPACE, message_for),
            period=self.period,
            count=int(round(total / self.period)),
        )
        region = Region(self.tracer)
        start, events_before = scheduler.now, scheduler.events_processed
        killed_at = start + kill_at
        scheduler.at(killed_at, lambda: service.kill_node(old_primary.node_id))
        with region.timed():
            loop.start()
            service.run(total)
            drained = drain(service, loop)

        problems: list[str] = []
        done = [r for r in loop.records if r.ok]
        new_primary = service.primary_node()
        print_of_run = fingerprint(service, loop.records) if new_primary else None
        # A 2xx reply promises local execution only (section 3.1): a write
        # the old primary acknowledged but had not replicated can be rolled
        # back by the election. Commit latency is over those that survived.
        survived = [
            r for r in done
            if new_primary is not None
            and new_primary.tx_status(TxID.parse(r.txid)) == "Committed"
        ]
        times = commits.times_for([r.seqno for r in survived])
        waits = [at - r.due for at, r in zip(times, survived) if at is not None]
        after_kill = [r.received for r in done if r.received > killed_at]
        latencies = [r.received - r.due for r in done]
        sim = {
            "sim_ops_per_s": len(done) / total,
            "sim_latency_p50_ms": percentile(latencies, 50) * 1e3,
            "sim_latency_p99_ms": percentile(latencies, 99) * 1e3,
            "sim_commit_p50_ms": percentile(waits, 50) * 1e3,
            "sim_commit_p99_ms": percentile(waits, 99) * 1e3,
        }
        if after_kill:
            sim["sim_unavailable_ms"] = (min(after_kill) - killed_at) * 1e3
        else:
            problems.append("no write was answered after the primary was killed")
        fill_empty_cells(sim)
        if drained is None:
            problems.append("service not quiet after the scenario")
        facts = {
            "events": scheduler.events_processed - events_before,
            "primaries": [old_primary.node_id]
            + ([new_primary.node_id] if new_primary is not None else []),
            "latency_samples": len(latencies),
            "commit_samples": len(waits),
            "acked_then_rolled_back": len(done) - len(survived),
            "retries": sum(r.attempts - 1 for r in loop.records),
            "generator_late_ms": loop.late * 1e3,
        }
        facts.update(_election_facts(service, elections_before))
        if loop.late != 0.0:
            problems.append(f"open-loop generator ran {loop.late * 1e3} sim-ms late")
        if new_primary is None:
            problems.append("no primary at the end of the scenario")
        elif check:
            problems += checks.committed_before_kill_survives(
                new_primary, commits.committed_by(old_primary.node_id, killed_at),
                old_primary,
            )
            problems += checks.ledgers_agree(service)
            problems += checks.ledger_audits(service)
            problems += checks.reads_back(service, survived, written, self.seed)
        return Rep(
            variant=variant,
            ops=len(done),
            attempted=len(loop.records),
            failed=len(loop.records) - len(done),
            window_ns=region.ns,
            setup_ns=region.first_start_ns - started,
            sim=sim,
            fingerprint=print_of_run,
            problems=problems,
            facts=facts,
        )


def _elections(service) -> tuple[int, int]:
    """(elections started, elections won) summed over all nodes."""
    engines = [n.consensus for n in service.nodes.values() if n.consensus is not None]
    return (
        sum(engine.elections_started for engine in engines),
        sum(engine.times_primary for engine in engines),
    )


def _election_facts(service, before: tuple[int, int]) -> dict:
    started, won = (now - then for now, then in zip(_elections(service), before))
    return {"elections": started, "elections_no_winner": started - won}


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Write5n, Read5n, Write5nObs, Catchup3n, Failover5n)
}
