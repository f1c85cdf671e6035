"""Shared benchmark harness.

Every benchmark builds a full simulated service (real crypto, real
consensus, simulated time) and drives it with the paper's workload: the
logging application under closed-loop clients (section 7, Experiment
Setup). Reported numbers are **simulated-time** throughput/latency — stable
across host machines; see DESIGN.md for the calibration against Table 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.app.jsapp.jsapp import build_js_app
from repro.app.logging_app import build_logging_app
from repro.node.config import NodeConfig
from repro.service.client import ClosedLoopClient, ServiceClient
from repro.service.service import CCFService, ServiceSetup
from repro.sim.metrics import LatencyRecorder, ThroughputRecorder

MESSAGE = "payload-20-chars-xyz"  # "messages are private and 20 characters"


def build_service(
    n_nodes: int = 3,
    runtime: str = "native",
    platform: str = "sgx",
    signature_interval: int = 100,
    signature_flush_time: float = 0.05,
    seed: int = 42,
    snapshot_interval: int = 0,
    link_latency: float | None = None,
) -> CCFService:
    """Bootstrap a service matching the paper's experiment setup."""
    config = NodeConfig(
        platform=platform,
        runtime=runtime,
        signature_interval=signature_interval,
        signature_flush_time=signature_flush_time,
        snapshot_interval=snapshot_interval,
    )
    app_factory = build_js_app if runtime == "js" else build_logging_app
    setup = ServiceSetup(
        n_nodes=n_nodes,
        node_config=config,
        app_factory=app_factory,
        seed=seed,
    )
    if link_latency is not None:
        from repro.net.network import LinkConfig

        setup.link = LinkConfig(base_latency=link_latency, jitter=link_latency / 5)
    service = CCFService(setup)
    service.bootstrap()
    return service


@dataclass
class WorkloadResult:
    """One measured operating point."""

    writes_per_second: float = 0.0
    reads_per_second: float = 0.0
    total_per_second: float = 0.0
    write_latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    read_latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    errors: int = 0


def run_logging_workload(
    service: CCFService,
    read_ratio: float = 0.0,
    concurrency: int = 100,
    warmup: float = 0.1,
    window: float = 0.3,
    spread_reads: bool = True,
    key_space: int = 1000,
) -> WorkloadResult:
    """Drive the logging app and measure steady-state throughput.

    Writes go directly to the primary ("to measure the performance of CCF
    itself, instead of the optional node-to-node forwarding logic, the
    user directly writes to the primary", section 7); reads are spread
    over all nodes when ``spread_reads`` is set.
    """
    primary = service.primary_node()
    nodes = [n for n in service.nodes.values() if not n.stopped]
    read_targets = [n.node_id for n in nodes] if spread_reads else [primary.node_id]
    user = service.users[0]
    credentials = {"certificate": user.certificate.to_dict()}

    # Pre-populate keys so reads always hit.
    seed_client = ServiceClient(service.scheduler, service.network,
                                name="bench-seeder", identity=user)
    for key in range(0, key_space, max(1, key_space // 50)):
        seed_client.call(primary.node_id, "/app/write_message",
                         {"id": key, "msg": MESSAGE}, credentials=credentials)
    service.run(0.05)

    result = WorkloadResult()
    writes = ThroughputRecorder()
    reads = ThroughputRecorder()
    clients: list[ClosedLoopClient] = []

    # One aggregated closed-loop client per target node; the write client
    # aims at the primary, read clients at every node. Reads target the
    # pre-populated key grid so they always hit.
    read_stride = max(1, key_space // 50)

    def make_factory(kind: str, salt: int):
        def factory(i: int):
            key = (i * 7 + salt) % key_space
            if kind == "write":
                return "/app/write_message", {"id": key, "msg": MESSAGE}, credentials
            read_key = (key // read_stride) * read_stride
            return "/app/read_message", {"id": read_key}, credentials
        return factory

    # Writes.
    if read_ratio < 1.0:
        write_concurrency = max(1, int(concurrency * (1 - read_ratio)))
        endpoint = ServiceClient(service.scheduler, service.network,
                                 name="bench-writer", identity=user)
        client = ClosedLoopClient(
            endpoint, primary.node_id, make_factory("write", 0),
            concurrency=write_concurrency, throughput=writes,
            latency=result.write_latency, retry_timeout=2.0,
        )
        clients.append(client)
    # Reads, spread across nodes.
    if read_ratio > 0.0:
        read_concurrency = max(1, int(concurrency * read_ratio))
        per_node = max(1, read_concurrency // len(read_targets))
        for index, target in enumerate(read_targets):
            endpoint = ServiceClient(service.scheduler, service.network,
                                     name=f"bench-reader-{index}", identity=user)
            client = ClosedLoopClient(
                endpoint, target, make_factory("read", index + 1),
                concurrency=per_node, throughput=reads,
                latency=result.read_latency, retry_timeout=2.0,
            )
            clients.append(client)

    for client in clients:
        client.start()
    service.run(warmup)
    start = service.scheduler.now
    service.run(window)
    end = service.scheduler.now
    for client in clients:
        client.stop()

    result.writes_per_second = writes.throughput(start, end)
    result.reads_per_second = reads.throughput(start, end)
    result.total_per_second = result.writes_per_second + result.reads_per_second
    result.errors = sum(client.errors for client in clients)
    return result


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Render an aligned results table to stdout (captured with `pytest -s`
    or the bench output tee)."""
    widths = [len(h) for h in headers]
    formatted_rows = []
    for row in rows:
        formatted = [f"{cell:,.1f}" if isinstance(cell, float) else str(cell) for cell in row]
        formatted_rows.append(formatted)
        widths = [max(w, len(cell)) for w, cell in zip(widths, formatted)]
    print(f"\n=== {title} ===")
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for formatted in formatted_rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(formatted, widths)))
