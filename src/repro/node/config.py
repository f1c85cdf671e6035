"""Node configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.consensus.raft import ConsensusConfig
from repro.errors import ConfigurationError
from repro.perf.costmodel import CostModel


@dataclass(frozen=True)
class NodeConfig:
    """Everything that parameterizes one CCF node.

    ``signature_interval`` is the number of transactions between signature
    transactions (Figure 8 uses 100); ``signature_flush_time`` bounds the
    commit latency of a trailing batch when traffic stops.
    """

    platform: str = "sgx"  # "sgx", "snp", or "virtual"
    runtime: str = "native"  # "native" (C++ analog) or "js"
    worker_threads: int = 10
    signature_interval: int = 100
    signature_flush_time: float = 0.05
    snapshot_interval: int = 0  # committed txs between snapshots; 0 = off
    replication_interval: float = 0.002  # primary push cadence for new entries
    join_retry_interval: float = 1.0  # joiner re-sends until admitted + recorded
    secure_channels: bool = True  # seal node-to-node traffic (X25519 + AEAD)
    accept_virtual_attestation: bool = False
    consensus: ConsensusConfig = field(default_factory=ConsensusConfig)
    cost_model: CostModel | None = None
    # Pipelined execution (PR 8). When ``batch_execution`` is on, the
    # primary drains queued writes into execution batches applied against a
    # single KV snapshot, amortizing ledger/replication overhead per the
    # cost model's batch_overhead_fraction. Batch size is adaptive, bounded
    # by all three budgets below: a batch closes at ``batch_max_requests``
    # requests or ``batch_max_bytes`` of request payload, and otherwise
    # drains ``batch_latency_budget`` seconds after the first queued write.
    batch_execution: bool = False
    batch_max_requests: int = 50
    batch_max_bytes: int = 65536
    batch_latency_budget: float = 0.0005
    # Serve read-only requests locally from the last-committed snapshot on
    # any node (instead of forwarding reads of forwarded sessions to the
    # primary), with TxID + receipt-claim freshness metadata on responses.
    read_offload: bool = False
    # Incremental state transfer (PR 9). Snapshot production serializes
    # only maps that changed since the last snapshot into content-addressed
    # sealed chunks (~``snapshot_chunk_bytes`` of canonical rows each),
    # reusing prior chunks for clean maps, and the join protocol ships a
    # signed manifest first so joiners fetch only the chunks they don't
    # already hold, ``join_chunk_batch`` ids per round.
    snapshot_chunk_bytes: int = 16384
    join_chunk_batch: int = 16

    def __post_init__(self) -> None:
        if self.signature_interval < 1:
            raise ConfigurationError("signature_interval must be >= 1")
        if self.worker_threads < 1:
            raise ConfigurationError("worker_threads must be >= 1")
        if self.batch_max_requests < 1:
            raise ConfigurationError("batch_max_requests must be >= 1")
        if self.batch_max_bytes < 1:
            raise ConfigurationError("batch_max_bytes must be >= 1")
        if self.batch_latency_budget < 0:
            raise ConfigurationError("batch_latency_budget must be >= 0")
        if self.snapshot_chunk_bytes < 256:
            raise ConfigurationError("snapshot_chunk_bytes must be >= 256")
        if self.join_chunk_batch < 1:
            raise ConfigurationError("join_chunk_batch must be >= 1")

    def resolve_cost_model(self) -> CostModel:
        if self.cost_model is not None:
            return self.cost_model
        return CostModel(
            runtime=self.runtime,
            platform=self.platform,
            worker_threads=self.worker_threads,
        )
