"""Extension experiment: write-outage distribution under primary failure.

Section 6.3 claims high availability through majority quorums and fast
elections. This bench kills the primary across many seeds and measures the
write-outage duration (last successful write before the kill → first
successful write after), giving the availability distribution behind
Figure 9's single timeline.

The outage bound is derived rather than fitted to a seed. The client
notices the kill within its first deadline, which is shorter than an
election timeout. A write it re-sends before the new primary is known can
be lost, and waits out at most one fully backed-off deadline before it is
sent to a node that can serve it. Each run continues past that bound, so a
write that never resumes fails the bound rather than the window.
"""

from benchmarks.harness import MESSAGE, build_service, print_table
from repro.consensus import raft
from repro.service.client import ClosedLoopClient, ServiceClient
from repro.sim.metrics import ThroughputRecorder

SEEDS = [1, 2, 3, 4, 5]
KILL_AT = 0.25
RUN_AFTER_KILL = 3.0


def _outage_bound(client: ClosedLoopClient) -> float:
    longest_deadline = client.max_retry_timeout * (1 + client.retry_jitter)
    return raft.ELECTION_TIMEOUT_MAX + longest_deadline


def _measure_outage(seed: int) -> tuple[float, float]:
    """(outage, bound) for one seed."""
    service = build_service(n_nodes=3, signature_interval=20, seed=1000 + seed)
    primary = service.primary_node()
    user = service.users[0]
    credentials = {"certificate": user.certificate.to_dict()}
    endpoint = ServiceClient(service.scheduler, service.network,
                             name=f"avail-{seed}", identity=user)
    throughput = ThroughputRecorder()
    client = ClosedLoopClient(
        endpoint, primary.node_id,
        lambda i: ("/app/write_message", {"id": i % 100, "msg": MESSAGE}, credentials),
        concurrency=20, throughput=throughput,
        fallback_nodes=[n.node_id for n in service.backup_nodes()],
        retry_timeout=0.1,
    )
    bound = _outage_bound(client)
    assert bound < RUN_AFTER_KILL
    client.start()
    service.run(KILL_AT)
    kill_time = service.scheduler.now
    service.kill_node(primary.node_id)
    service.run(RUN_AFTER_KILL)
    client.stop()
    before = [t for t in throughput.events if t <= kill_time]
    after = [t for t in throughput.events if t > kill_time]
    assert before and after, f"seed {seed}: writes never resumed"
    return after[0] - before[-1], bound


def test_write_outage_distribution(benchmark):
    results = benchmark.pedantic(
        lambda: [_measure_outage(seed) for seed in SEEDS], rounds=1, iterations=1
    )
    outages_sorted = sorted(outage for outage, _bound in results)
    print_table(
        f"Extension: write-outage duration on primary failure ({len(SEEDS)} seeds)",
        ["statistic", "outage (s)"],
        [
            ["min", outages_sorted[0]],
            ["median", outages_sorted[len(outages_sorted) // 2]],
            ["max", outages_sorted[-1]],
        ],
    )
    # Every outage is within an election timeout plus the client's longest
    # retry deadline.
    assert all(outage < bound for outage, bound in results)
    # And elections genuinely take an election-timeout-scale pause.
    assert all(outage > 0.05 for outage, _bound in results)
